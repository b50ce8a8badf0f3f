package arena_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
)

// runBatch serves count instances and returns the results indexed by
// submission order.
func runBatch(t *testing.T, cfg arena.Config, count int) (*arena.Arena, []arena.Result) {
	t.Helper()
	a, err := arena.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]arena.Result, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		done, err := a.Submit(fmt.Sprintf("key-%05d", i), i%2)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, done <-chan arena.Result) {
			defer wg.Done()
			results[i] = <-done
		}(i, done)
	}
	wg.Wait()
	return a, results
}

func TestDeterministicReplay(t *testing.T) {
	// Two arenas with the same seed but different pool shapes — shard and
	// worker counts both — must produce identical decisions, rounds, ops,
	// and report JSON: the pool may only affect latency and placement.
	cfgA := arena.Config{Shards: 4, Workers: 1, N: 8, Seed: 99}
	cfgB := arena.Config{Shards: 3, Workers: 8, N: 8, Seed: 99}
	const count = 400

	aA, resA := runBatch(t, cfgA, count)
	defer aA.Close()
	aB, resB := runBatch(t, cfgB, count)
	defer aB.Close()

	for i := range resA {
		ra, rb := resA[i], resB[i]
		if ra.Err != nil || rb.Err != nil {
			t.Fatalf("instance %d errored: %v / %v", i, ra.Err, rb.Err)
		}
		if ra.Value != rb.Value || ra.FirstRound != rb.FirstRound ||
			ra.LastRound != rb.LastRound || ra.Ops != rb.Ops || ra.SimTime != rb.SimTime {
			t.Fatalf("instance %d diverged across pool shapes: %+v vs %+v", i, ra, rb)
		}
	}

	// The cross-check that matters for serving: reports built from both
	// runs (same seed, same workload) must be byte-identical. Worker count
	// is part of the report header, so compare with matched configs.
	aA2, resA2 := runBatch(t, cfgA, count)
	defer aA2.Close()
	ja, err := arena.BuildReport(aA.Config(), resA).JSON()
	if err != nil {
		t.Fatal(err)
	}
	ja2, err := arena.BuildReport(aA2.Config(), resA2).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, ja2) {
		t.Errorf("same seed produced different JSON reports:\n%s\nvs\n%s", ja, ja2)
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	// Sanity check that the seed actually reaches the instances: across
	// enough keys, at least one decision must differ between seeds.
	a1, res1 := runBatch(t, arena.Config{Shards: 2, Seed: 1}, 200)
	defer a1.Close()
	a2, res2 := runBatch(t, arena.Config{Shards: 2, Seed: 2}, 200)
	defer a2.Close()
	same := true
	for i := range res1 {
		if res1[i].Value != res2[i].Value {
			same = false
			break
		}
	}
	if same {
		t.Error("200 instances decided identically under different seeds")
	}
}

func TestShardRoutingStability(t *testing.T) {
	a8, err := arena.New(arena.Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a8.Close()
	a9, err := arena.New(arena.Config{Shards: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer a9.Close()

	const keys = 10000
	counts := make([]int, 8)
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("user-%d", i)
		s := a8.ShardFor(key)
		if s != a8.ShardFor(key) {
			t.Fatal("routing is not stable within a run")
		}
		counts[s]++
		if a9.ShardFor(key) != s {
			moved++
		}
	}
	// Consistent hashing: growing 8 → 9 shards relocates ~1/9 of keys.
	if frac := float64(moved) / keys; frac > 0.15 {
		t.Errorf("%.1f%% of keys moved when adding one shard, want ~11%%", 100*frac)
	}
	// And the load must be roughly balanced.
	for s, c := range counts {
		if c < keys/8/2 || c > keys/8*2 {
			t.Errorf("shard %d holds %d of %d keys — badly unbalanced", s, c, keys)
		}
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 2, Workers: 1, N: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Queue up more work than the workers can have finished, then Close
	// immediately: every already-submitted instance must still complete.
	const count = 200
	chans := make([]<-chan arena.Result, count)
	for i := 0; i < count; i++ {
		done, err := a.Submit(fmt.Sprintf("inflight-%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = done
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i, done := range chans {
		select {
		case res := <-done:
			if res.Err != nil {
				t.Fatalf("in-flight instance %d failed: %v", i, res.Err)
			}
		default:
			t.Fatalf("in-flight instance %d was dropped by Close", i)
		}
	}
	if _, err := a.Submit("late", 0); err != arena.ErrClosed {
		t.Errorf("Submit after Close returned %v, want ErrClosed", err)
	}
	if _, err := a.Propose(context.Background(), "late", 0); err != arena.ErrClosed {
		t.Errorf("Propose after Close returned %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close returned %v", err)
	}
	st := a.Stats()
	if st.Totals.Proposals != count {
		t.Errorf("stats saw %d proposals, want %d", st.Totals.Proposals, count)
	}
}

func TestProposeContextCancel(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Propose(ctx, "k", 0); err != context.Canceled {
		t.Errorf("Propose with cancelled ctx returned %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	// Many goroutines hammering Propose concurrently — the -race target.
	a, err := arena.New(arena.Config{Shards: 4, Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for i := 0; i < perClient; i++ {
				key := fmt.Sprintf("client-%d-%d", c, i)
				res, err := a.Propose(ctx, key, (c+i)%2)
				if err != nil {
					errs <- err
					return
				}
				// Replays of the same key with the same bit must agree.
				res2, err := a.Propose(ctx, key, (c+i)%2)
				if err != nil {
					errs <- err
					return
				}
				if res.Value != res2.Value || res.Ops != res2.Ops {
					errs <- fmt.Errorf("key %s not reproducible: %+v vs %+v", key, res, res2)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if got := st.Totals.Proposals; got != clients*perClient*2 {
		t.Errorf("served %d proposals, want %d", got, clients*perClient*2)
	}
	if st.Totals.Errors != 0 {
		t.Errorf("%d instances errored", st.Totals.Errors)
	}
}

func TestBackends(t *testing.T) {
	for _, name := range []string{"sched", "hybrid", "msgnet"} {
		t.Run(name, func(t *testing.T) {
			model, err := engine.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := arena.Config{Shards: 2, Workers: 2, N: 4, Seed: 3, Model: model}
			a, res := runBatch(t, cfg, 50)
			defer a.Close()
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("instance %d: %v", i, r.Err)
				}
				if r.Value != 0 && r.Value != 1 {
					t.Fatalf("instance %d decided %d", i, r.Value)
				}
				if r.Ops <= 0 {
					t.Fatalf("instance %d reports %d ops", i, r.Ops)
				}
			}
			// Replay must match per backend too.
			a2, res2 := runBatch(t, cfg, 50)
			defer a2.Close()
			for i := range res {
				if res[i].Value != res2[i].Value || res[i].Ops != res2[i].Ops {
					t.Fatalf("backend %s instance %d not reproducible", name, i)
				}
			}
		})
	}
	if _, err := engine.ByName("bogus"); err == nil {
		t.Error("ByName accepted an unknown model")
	}
}

func TestSubmitRejectsBadBit(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Submit("k", 2); err == nil {
		t.Error("Submit accepted bit 2")
	}
}

func TestValidityUnanimousKeys(t *testing.T) {
	// With N=1 the instance's only input is the client's bit, so validity
	// pins the decision to it exactly.
	a, err := arena.New(arena.Config{Shards: 2, N: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		bit := i % 2
		res, err := a.Propose(ctx, fmt.Sprintf("solo-%d", i), bit)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != bit {
			t.Fatalf("n=1 instance decided %d from input %d", res.Value, bit)
		}
	}
}

func TestReportAggregation(t *testing.T) {
	cfg := arena.Config{Shards: 3, Workers: 2, Seed: 21, Noise: dist.Uniform{Lo: 0, Hi: 2}}
	a, res := runBatch(t, cfg, 120)
	defer a.Close()
	rep := arena.BuildReport(a.Config(), res)
	if rep.Instances != 120 || rep.Decided0+rep.Decided1 != 120 || rep.Errors != 0 {
		t.Fatalf("report counts off: %+v", rep)
	}
	var total int64
	for _, c := range rep.PerShard {
		total += c
	}
	if total != 120 {
		t.Errorf("per-shard counts sum to %d, want 120", total)
	}
	if rep.Noise != (dist.Uniform{Lo: 0, Hi: 2}).String() {
		t.Errorf("report noise %q", rep.Noise)
	}
	if rep.MeanOps <= 0 || rep.MeanFirstRound <= 0 {
		t.Errorf("degenerate means: %+v", rep)
	}
}

// TestRunCellMatchesHarness checks the cell path end to end: a one-rep
// cell with a verbatim seed and nil inputs must reproduce
// engine.Model.Run on the half-and-half input assignment, independent of
// the arena's own seed, shape, and configured N.
func TestRunCellMatchesHarness(t *testing.T) {
	model, err := engine.ByName("sched")
	if err != nil {
		t.Fatal(err)
	}
	a, err := arena.New(arena.Config{Shards: 3, Workers: 2, N: 4, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	noise := dist.Exponential{MeanVal: 1}
	for i := 0; i < 50; i++ {
		n := 2 + i%7
		seed := uint64(1000 + i)
		sink := &recordingSink{}
		if _, err := runCell(a, arena.CellRequest{
			Key: fmt.Sprintf("cell-%d", i), N: n, Noise: noise, Reps: 1,
			Seed: func(int) uint64 { return seed }, Sink: sink,
		}); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		res := sink.results[0]
		if res.Err != nil {
			t.Fatalf("instance %d: %v", i, res.Err)
		}
		inputs := make([]int, n)
		for j := n / 2; j < n; j++ {
			inputs[j] = 1
		}
		want, err := model.Run(engine.Spec{N: n, Inputs: inputs, Noise: noise, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want.Value || res.FirstRound != want.FirstRound ||
			res.LastRound != want.LastRound || res.Ops != want.Ops || res.SimTime != want.SimTime {
			t.Fatalf("instance %d diverged from direct run:\n  arena  %+v\n  direct %+v", i, res, want)
		}
	}
}

// TestRunSpecsCancelMidBatchLeavesArenaDrainable is the regression test
// for clean aborts of a per-instance batch, which now runs as one-rep
// cells through RunCells: cancelling mid-batch on a pool with several
// cells in flight per shard stops submission, every submitted instance
// still completes and delivers in order, the arena serves fresh work,
// Close drains promptly, and no goroutine leaks.
func TestRunSpecsCancelMidBatchLeavesArenaDrainable(t *testing.T) {
	before := runtime.NumGoroutine()

	a, err := arena.New(arena.Config{Shards: 2, Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	noise := dist.Exponential{MeanVal: 1}
	ctx, cancel := context.WithCancel(context.Background())

	const count = 10_000
	submittedWhenCancelled := -1
	delivered := 0
	err = a.RunCells(ctx, count,
		func(i int) arena.CellRequest {
			if i == 40 {
				cancel()
				submittedWhenCancelled = i
			}
			seed := uint64(i)
			return arena.CellRequest{
				Key: fmt.Sprintf("k-%d", i), N: 4, Noise: noise, Reps: 1,
				Seed: func(int) uint64 { return seed }, Sink: &recordingSink{},
			}
		},
		func(i int, r arena.CellResult) {
			if i != delivered {
				t.Fatalf("delivery out of order after cancel: got %d, want %d", i, delivered)
			}
			if r.Reps != 1 || r.Errors != 0 {
				t.Fatalf("instance %d: %+v", i, r)
			}
			delivered++
		})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells returned %v, want context.Canceled", err)
	}
	if submittedWhenCancelled < 0 {
		t.Fatal("generator never reached the cancellation point")
	}
	if delivered <= submittedWhenCancelled || delivered >= count/2 {
		t.Fatalf("delivered %d results; want every submitted instance (~%d) and nowhere near %d",
			delivered, submittedWhenCancelled, count)
	}

	// The arena must still serve fresh work after an aborted batch ...
	sink := &recordingSink{}
	res, err := runCell(a, arena.CellRequest{
		Key: "after-cancel", N: 4, Noise: noise, Reps: 1,
		Seed: func(int) uint64 { return 9 }, Sink: sink,
	})
	if err != nil || res.Errors != 0 || len(sink.results) != 1 || sink.results[0].Err != nil {
		t.Fatalf("arena unusable after cancelled batch: %v / %+v", err, res)
	}
	// ... and Close must drain promptly.
	closed := make(chan error, 1)
	go func() { closed <- a.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close after cancelled batch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after cancelled batch")
	}

	// Workers and helpers must all have exited; allow the runtime a moment
	// to reap.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled batch: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
