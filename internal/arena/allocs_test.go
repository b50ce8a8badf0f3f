package arena_test

import (
	"context"
	"fmt"
	"testing"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/metrics"
)

// TestProposeAllocs bounds the allocations of one Propose on a warmed
// one-worker arena: untraced, traced, and with a metrics bundle.
func TestProposeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-%d", i)
	}
	for _, tc := range []struct {
		name string
		cfg  arena.Config
	}{
		{"untraced", arena.Config{}},
		{"traced", arena.Config{Trace: &arena.TraceConfig{PerShard: 2}}},
		{"metrics", arena.Config{Metrics: arena.NewMetrics(metrics.NewRegistry())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Shards, cfg.Workers, cfg.Seed = 1, 1, 3
			a, err := arena.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			ctx := context.Background()
			i := 0
			propose := func() {
				if _, err := a.Propose(ctx, keys[i%len(keys)], i%2); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range keys {
				propose() // warm the worker's session and keeper
			}
			avg := testing.AllocsPerRun(len(keys), propose)
			t.Logf("%.2f allocs per Propose", avg)
			if avg > 4 {
				t.Fatalf("Propose allocates %.1f times, want at most 4", avg)
			}
		})
	}
}

// TestTracedCellAllocs bounds a traced 1,000-repetition cell on a warmed
// one-worker arena: a repetition that cannot make the cut must not pay
// for its capture name.
func TestTracedCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cr := arena.CellRequest{
		Key: "traced", N: 8, Noise: dist.Exponential{MeanVal: 1}, Reps: 1000,
		Seed: func(rep int) uint64 { return uint64(rep)*2654435761 + 1 }, Sink: discard{},
		Trace: &arena.TraceConfig{PerShard: 2},
	}
	run := func() {
		if _, err := runCell(a, cr); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the worker's session and recorder
	avg := testing.AllocsPerRun(3, run)
	t.Logf("%.0f allocs per cell", avg)
	if avg >= 300 {
		t.Fatalf("traced 1,000-repetition cell allocates %.0f times, want fewer than 300", avg)
	}
}

// discard drops every repetition.
type discard struct{}

func (discard) Add(int, arena.Result) {}
