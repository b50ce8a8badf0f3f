package leanconsensus_test

import (
	"context"
	"fmt"
	"testing"

	"leanconsensus"
	"leanconsensus/internal/arena"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/harness"
	"leanconsensus/internal/renewal"
)

// The benchmarks below regenerate, at reduced trial counts, every
// experiment of DESIGN.md's index (one bench per figure/table row source).
// Run cmd/leanbench for the full-scale versions with rendered tables.

// runExperiment is the shared driver: one harness experiment per b.N loop.
func runExperiment(b *testing.B, key string) {
	b.Helper()
	exp, err := harness.Lookup(key)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(harness.ScaleBench); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates E1 (Figure 1) at bench scale.
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTailTheorem12 regenerates E2.
func BenchmarkTailTheorem12(b *testing.B) { runExperiment(b, "tail") }

// BenchmarkRenewalRaceTheorem10 regenerates E2b.
func BenchmarkRenewalRaceTheorem10(b *testing.B) { runExperiment(b, "race") }

// BenchmarkLowerBoundTheorem13 regenerates E3.
func BenchmarkLowerBoundTheorem13(b *testing.B) { runExperiment(b, "lower-bound") }

// BenchmarkHybridTheorem14 regenerates E4.
func BenchmarkHybridTheorem14(b *testing.B) { runExperiment(b, "hybrid") }

// BenchmarkBoundedSpaceTheorem15 regenerates E5.
func BenchmarkBoundedSpaceTheorem15(b *testing.B) { runExperiment(b, "bounded") }

// BenchmarkFailures regenerates E6.
func BenchmarkFailures(b *testing.B) { runExperiment(b, "failures") }

// BenchmarkUnfairnessTheorem1 regenerates E7.
func BenchmarkUnfairnessTheorem1(b *testing.B) { runExperiment(b, "unfairness") }

// BenchmarkCrashFailures regenerates E8.
func BenchmarkCrashFailures(b *testing.B) { runExperiment(b, "crash") }

// BenchmarkValidityFastPath regenerates E9.
func BenchmarkValidityFastPath(b *testing.B) { runExperiment(b, "validity") }

// BenchmarkAblationOptimized regenerates E10.
func BenchmarkAblationOptimized(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkMessagePassing regenerates E11 (Section 10 extension).
func BenchmarkMessagePassing(b *testing.B) { runExperiment(b, "message-passing") }

// BenchmarkStatisticalAdversary regenerates E12 (Section 10 extension).
func BenchmarkStatisticalAdversary(b *testing.B) { runExperiment(b, "statistical") }

// BenchmarkElection regenerates E13 (footnote 2 extension).
func BenchmarkElection(b *testing.B) { runExperiment(b, "election") }

// BenchmarkContention regenerates E14 (Section 10 extension).
func BenchmarkContention(b *testing.B) { runExperiment(b, "contention") }

// BenchmarkSimulate measures single noisy-scheduling executions across
// sizes and distributions (the engine's core loop).
func BenchmarkSimulate(b *testing.B) {
	for _, n := range []int{8, 64, 512, 4096} {
		for _, d := range []dist.Distribution{
			dist.Exponential{MeanVal: 1},
			dist.TwoPoint{A: 2.0 / 3.0, B: 4.0 / 3.0},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := leanconsensus.Simulate(n,
						leanconsensus.WithDistribution(d),
						leanconsensus.WithSeed(uint64(i)),
					); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimulateBounded measures the combined (Section 8) protocol.
func BenchmarkSimulateBounded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := leanconsensus.Simulate(64,
			leanconsensus.WithBoundedSpace(4),
			leanconsensus.WithDistribution(leanconsensus.TwoPoint(1, 2)),
			leanconsensus.WithSeed(uint64(i)),
		); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridRun measures hybrid-scheduled executions under the
// default randomized scheduler from n=8 up to the wire's largest n, so
// one run shows how an instance's cost grows with n: Theorem 14 bounds
// every process to 12 operations, so linear growth is the target.
func BenchmarkHybridRun(b *testing.B) {
	for _, n := range []int{8, 64, 1024, 4096} {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i % 2
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := leanconsensus.SimulateHybrid(leanconsensus.HybridConfig{
					Inputs:    inputs,
					Quantum:   8,
					Randomize: true,
					Seed:      uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveGoroutines measures real-concurrency consensus.
func BenchmarkLiveGoroutines(b *testing.B) {
	inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := leanconsensus.Live(ctx, leanconsensus.LiveConfig{
			Inputs: inputs,
			Seed:   uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaThroughput measures arena decisions/sec across the
// shards × workers grid: each iteration serves one consensus instance
// through a shared sharded worker pool, so ns/op is the inverse service
// throughput under full load. The telemetry dimension proves the
// instrumented hot path stays within 1 alloc/op of the uninstrumented
// baseline (3 allocs/op: the key and the result channel, every proposal
// being a one-repetition cell with pooled inputs and sink): metrics
// record through per-worker striped atomics, never allocating per
// request. The trace dimension proves the flight recorder is free when
// disarmed — trace=0 must hold the same 3 allocs/op (the recorder is a
// nil check on the hot path) — and cheap when armed: trace=2 records
// into pooled fixed-capacity rings, so steady-state appends allocate
// nothing.
func BenchmarkArenaThroughput(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4} {
			for _, telemetry := range []bool{false, true} {
				for _, traceK := range []int{0, 2} {
					name := fmt.Sprintf("shards=%d/workers=%d/telemetry=%t/trace=%d",
						shards, workers, telemetry, traceK)
					b.Run(name, func(b *testing.B) {
						a, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{
							Shards:    shards,
							Workers:   workers,
							N:         8,
							Seed:      1,
							Telemetry: telemetry,
							TraceK:    traceK,
						})
						if err != nil {
							b.Fatal(err)
						}
						defer a.Close()
						ctx := context.Background()
						b.ReportAllocs()
						b.RunParallel(func(pb *testing.PB) {
							i := 0
							for pb.Next() {
								key := fmt.Sprintf("bench-%d", i)
								i++
								if _, err := a.Propose(ctx, key, i%2); err != nil {
									b.Fatal(err)
								}
							}
						})
						st := a.Stats()
						b.ReportMetric(st.Throughput, "decisions/sec")
					})
				}
			}
		}
	}
}

// BenchmarkArenaBackends compares per-decision cost across execution
// models at a fixed pool shape.
func BenchmarkArenaBackends(b *testing.B) {
	for _, backend := range []string{
		leanconsensus.BackendSched,
		leanconsensus.BackendHybrid,
		leanconsensus.BackendMsgNet,
	} {
		b.Run(backend, func(b *testing.B) {
			a, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{
				Shards: 4, Workers: 2, N: 8, Seed: 1, Backend: backend,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Propose(ctx, fmt.Sprintf("bench-%d", i), i%2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRenewalRace measures the bare renewal-race simulation.
func BenchmarkRenewalRace(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := renewal.Run(renewal.Config{
					N:     n,
					Noise: dist.Exponential{MeanVal: 1},
					Lead:  2,
					Seed:  uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignAggregate pins the campaign aggregation path's memory
// shape: folding one repetition into a cell's streaming aggregate
// (campaign.CellStats.Add — Welford moments plus a fixed-size percentile
// sketch) allocates nothing, so campaign memory is O(cells), never
// O(instances). The instances dimension exists to make the claim visible:
// allocs/op stays flat (the one CellStats) while the folded volume grows
// 100×.
func BenchmarkCampaignAggregate(b *testing.B) {
	mk := func(i int) arena.Result {
		return arena.Result{
			Value:      i & 1,
			FirstRound: 2 + i%5,
			LastRound:  3 + i%5,
			Ops:        int64(40 + i%17),
			SimTime:    float64(i % 10),
		}
	}
	for _, instances := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("instances=%d", instances), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				var cs campaign.CellStats
				for i := 0; i < instances; i++ {
					cs.Add(8, mk(i))
				}
				if cs.Reps != int64(instances) {
					b.Fatalf("folded %d of %d", cs.Reps, instances)
				}
			}
		})
	}
}
