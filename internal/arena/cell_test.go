package arena_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/metrics"
)

// recordingSink captures every repetition a cell folds, in order.
type recordingSink struct {
	n       []int
	results []arena.Result
}

func (s *recordingSink) Add(n int, r arena.Result) {
	s.n = append(s.n, n)
	s.results = append(s.results, r)
}

func cellSeed(c, rep int) uint64 { return uint64(c*1000+rep)*2654435761 + 7 }

// runCell serves one cell through RunCells and returns its result.
func runCell(a *arena.Arena, cr arena.CellRequest) (arena.CellResult, error) {
	var res arena.CellResult
	err := a.RunCells(context.Background(), 1,
		func(int) arena.CellRequest { return cr },
		func(_ int, r arena.CellResult) { res = r })
	return res, err
}

// TestRunCellsMatchesLoop is the cell path's core identity, checked
// against an independent oracle: the same workload pushed through
// RunCells (one queue entry per cell, batched on a pooled session) on two
// pool shapes yields, rep for rep, the results of a plain loop of direct
// model runs; cells are delivered in submission order; the cells' own
// counters total the loop's; and the cells' metrics bundle agrees with
// both, with one latency observation per repetition, while the arena's
// own bundle and stats see nothing.
func TestRunCellsMatchesLoop(t *testing.T) {
	sched, err := engine.ByName("sched")
	if err != nil {
		t.Fatal(err)
	}
	noise := dist.Exponential{MeanVal: 1}
	const cells, reps = 6, 20
	explicit := []int{1, 0, 1, 0, 1} // cell 3 pins its own inputs
	gen := func(c int) arena.CellRequest {
		cr := arena.CellRequest{
			Key:   fmt.Sprintf("cell-%02d", c),
			N:     2 + c,
			Noise: noise,
			Reps:  reps,
			Seed:  func(rep int) uint64 { return cellSeed(c, rep) },
		}
		if c == 3 {
			cr.Inputs = explicit
		}
		return cr
	}

	// The oracle: direct runs in cell and repetition order, and the
	// counters a shard would keep for them.
	loop := make([][]engine.Result, cells)
	var want arena.ShardStats
	for c := 0; c < cells; c++ {
		cr := gen(c)
		inputs := cr.Inputs
		if inputs == nil {
			inputs = make([]int, cr.N)
			for i := cr.N / 2; i < cr.N; i++ {
				inputs[i] = 1
			}
		}
		for rep := 0; rep < reps; rep++ {
			r, err := sched.Run(engine.Spec{Key: cr.Key, N: cr.N, Inputs: inputs, Noise: noise, Seed: cellSeed(c, rep)}, nil)
			if err != nil {
				t.Fatalf("cell %d rep %d direct run: %v", c, rep, err)
			}
			loop[c] = append(loop[c], r)
			want.Proposals++
			want.Decided[r.Value]++
			want.Ops += r.Ops
			want.RoundSum += int64(r.FirstRound)
			want.MaxRound = max(want.MaxRound, r.LastRound)
		}
	}

	for _, shape := range [][2]int{{3, 2}, {5, 1}} {
		reg := metrics.NewRegistry()
		m := arena.NewMetrics(reg, "path", "cell")
		own := arena.NewMetrics(reg, "path", "arena")
		a, err := arena.New(arena.Config{Shards: shape[0], Workers: shape[1], Metrics: own})
		if err != nil {
			t.Fatal(err)
		}
		sinks := make([]*recordingSink, cells)
		next := 0
		var st arena.ShardStats
		err = a.RunCells(context.Background(), cells,
			func(c int) arena.CellRequest {
				sinks[c] = &recordingSink{}
				cr := gen(c)
				cr.Sink = sinks[c]
				cr.Metrics = m
				return cr
			},
			func(c int, r arena.CellResult) {
				if c != next {
					t.Fatalf("shape %v: delivery out of order: got cell %d, want %d", shape, c, next)
				}
				next++
				if r.Stats.Proposals != reps {
					t.Fatalf("shape %v: cell %d counted %d repetitions", shape, c, r.Stats.Proposals)
				}
				st.Merge(r.Stats)
				if r.Reps != reps || r.Errors != 0 || r.FirstErr != nil {
					t.Fatalf("shape %v: cell %d result %+v", shape, c, r)
				}
				if r.Key != fmt.Sprintf("cell-%02d", c) {
					t.Fatalf("shape %v: cell %d delivered key %q", shape, c, r.Key)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if next != cells {
			t.Fatalf("shape %v: delivered %d of %d cells", shape, next, cells)
		}
		for c := 0; c < cells; c++ {
			sink := sinks[c]
			if len(sink.results) != reps {
				t.Fatalf("shape %v: cell %d folded %d repetitions, want %d", shape, c, len(sink.results), reps)
			}
			for rep := 0; rep < reps; rep++ {
				got, direct := sink.results[rep], loop[c][rep]
				if sink.n[rep] != 2+c {
					t.Fatalf("cell %d rep %d folded with n=%d, want %d", c, rep, sink.n[rep], 2+c)
				}
				if got.Err != nil {
					t.Fatalf("shape %v: cell %d rep %d errored: %v", shape, c, rep, got.Err)
				}
				if got.Value != direct.Value || got.FirstRound != direct.FirstRound ||
					got.LastRound != direct.LastRound || got.Ops != direct.Ops || got.SimTime != direct.SimTime {
					t.Fatalf("shape %v: cell %d rep %d diverged:\n  cell %+v\n  loop %+v", shape, c, rep, got, direct)
				}
			}
		}

		// Aggregate identity: the cells total exactly the loop's counters,
		// and the arena's own counters, kept for derived instances, stay
		// empty.
		if st != want {
			t.Fatalf("shape %v: stats totals diverged:\n  cells %+v\n  loop  %+v", shape, st, want)
		}
		if got := a.Stats().Totals; got != (arena.ShardStats{}) {
			t.Fatalf("shape %v: cells leaked into the arena's stats: %+v", shape, got)
		}
		if got := own.Decided[0].Value() + own.Decided[1].Value() + own.Latency.Count(); got != 0 {
			t.Fatalf("shape %v: cells leaked into the arena's metrics bundle: %d", shape, got)
		}

		// Metrics: counters fold in bulk per cell but must agree with the
		// stats; latency is observed once per repetition and the queued
		// gauge is charged one slot per cell, back to zero after the drain.
		if got := m.Decided[0].Value() + m.Decided[1].Value(); got != st.Decided[0]+st.Decided[1] {
			t.Errorf("decided counters = %d, stats say %d", got, st.Decided[0]+st.Decided[1])
		}
		if got := m.Rounds.Value(); got != st.RoundSum {
			t.Errorf("rounds counter = %d, stats say %d", got, st.RoundSum)
		}
		if got := m.Ops.Value(); got != st.Ops {
			t.Errorf("ops counter = %d, stats say %d", got, st.Ops)
		}
		if got := m.Latency.Count(); got != cells*reps {
			t.Errorf("latency histogram holds %d observations, want one per repetition (%d)", got, cells*reps)
		}
		if got := m.Queued.Value(); got != 0 {
			t.Errorf("queued gauge = %d after drain, want 0", got)
		}
	}
}

// TestRunCellExplicitModel covers the Model override: a cell naming its
// own model must match direct engine runs of that model.
func TestRunCellExplicitModel(t *testing.T) {
	hy, err := engine.ByName("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sink := &recordingSink{}
	const reps = 10
	res, err := runCell(a, arena.CellRequest{
		Model: hy,
		Key:   "hybrid-cell",
		N:     6,
		Reps:  reps,
		Seed:  func(rep int) uint64 { return cellSeed(0, rep) },
		Sink:  sink,
	})
	if err != nil || res.Errors != 0 {
		t.Fatalf("RunCells: %v, %+v", err, res)
	}
	inputs := []int{0, 0, 0, 1, 1, 1}
	for rep := 0; rep < reps; rep++ {
		want, err := hy.Run(engine.Spec{Key: "hybrid-cell", N: 6, Inputs: inputs, Seed: cellSeed(0, rep)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sink.results[rep]
		if got.Value != want.Value || got.Ops != want.Ops {
			t.Fatalf("rep %d diverged: batched %+v, direct %+v", rep, got, want)
		}
	}
}

// TestSubmitCellValidation covers the client-error paths of RunCells,
// including submission after Close.
func TestSubmitCellValidation(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	seed := func(rep int) uint64 { return uint64(rep) }
	ok := arena.CellRequest{Key: "c", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 1, Seed: seed, Sink: sink}
	bad := []struct {
		name string
		mut  func(*arena.CellRequest)
	}{
		{"zero reps", func(c *arena.CellRequest) { c.Reps = 0 }},
		{"zero n", func(c *arena.CellRequest) { c.N = 0 }},
		{"mismatched inputs", func(c *arena.CellRequest) { c.Inputs = []int{0, 1} }},
		{"nil seed", func(c *arena.CellRequest) { c.Seed = nil }},
		{"nil sink", func(c *arena.CellRequest) { c.Sink = nil }},
	}
	for _, tc := range bad {
		cr := ok
		tc.mut(&cr)
		if _, err := runCell(a, cr); err == nil {
			t.Errorf("RunCells accepted %s", tc.name)
		}
	}
	if _, err := runCell(a, ok); err != nil {
		t.Fatalf("RunCells rejected a valid cell: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := runCell(a, ok); !errors.Is(err, arena.ErrClosed) {
		t.Fatalf("RunCells after Close returned %v, want ErrClosed", err)
	}
}

// TestCellOnTracedArena pins the trace interaction on a shared arena:
// every repetition of a traced cell is captured under "<key>,rep=<i>"
// with its own seed and returned on the cell's result, never in the
// arena's own capture set; a later Submit on the same worker is captured
// by the arena only; and an untraced cell after them records nothing.
func TestCellOnTracedArena(t *testing.T) {
	const reps = 30
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1, Trace: &arena.TraceConfig{PerShard: reps + 1}})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	res, err := runCell(a, arena.CellRequest{
		Key: "batched", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: reps,
		Seed:  func(rep int) uint64 { return uint64(rep + 1) },
		Sink:  sink,
		Trace: &arena.TraceConfig{PerShard: reps},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := a.Propose(context.Background(), "submitted", 1)
	if err != nil || sub.Err != nil {
		t.Fatalf("Submit after cell: %v / %v", err, sub.Err)
	}
	plain, err := runCell(a, arena.CellRequest{
		Key: "untraced", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 3,
		Seed: func(rep int) uint64 { return uint64(rep + 1) }, Sink: &recordingSink{},
	})
	if err != nil || plain.Traces != nil {
		t.Fatalf("untraced cell: %v, captured %d", err, len(plain.Traces))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != reps {
		t.Fatalf("cell captured %d instances, want its %d repetitions", len(res.Traces), reps)
	}
	seen := make(map[string]bool)
	for _, inst := range res.Traces {
		seen[inst.Key] = true
		if len(inst.Events) == 0 {
			t.Fatalf("capture %q has no events", inst.Key)
		}
		var rep int
		if _, err := fmt.Sscanf(inst.Key, "batched,rep=%d", &rep); err != nil {
			t.Fatalf("cell capture %q is not one of its repetitions", inst.Key)
		}
		if inst.Seed != uint64(rep+1) || inst.LastRound != sink.results[rep].LastRound {
			t.Fatalf("capture %q does not describe repetition %d: %+v", inst.Key, rep, inst)
		}
	}
	for rep := 0; rep < reps; rep++ {
		if !seen[fmt.Sprintf("batched,rep=%d", rep)] {
			t.Fatalf("repetition %d not captured: %v", rep, seen)
		}
	}
	if got := a.Traces(); len(got) != 1 || got[0].Key != "submitted" || len(got[0].Events) == 0 {
		t.Fatalf("arena captured %+v, want only the Submit after the cell", got)
	}
}

// TestRunCellsCancelDrains checks the cancellation contract at cell
// granularity: submission stops, already-submitted cells complete and
// deliver in order, and the arena stays usable.
func TestRunCellsCancelDrains(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 2, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const count = 1000
	delivered := 0
	err = a.RunCells(ctx, count,
		func(c int) arena.CellRequest {
			if c == 8 {
				cancel()
			}
			return arena.CellRequest{
				Key: fmt.Sprintf("c-%d", c), N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 5,
				Seed: func(rep int) uint64 { return cellSeed(c, rep) },
				Sink: &recordingSink{},
			}
		},
		func(c int, r arena.CellResult) {
			if c != delivered {
				t.Fatalf("delivery out of order after cancel: got %d, want %d", c, delivered)
			}
			delivered++
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells returned %v, want context.Canceled", err)
	}
	if delivered < 8 || delivered >= count/2 {
		t.Fatalf("delivered %d cells; want every submitted cell and nowhere near %d", delivered, count)
	}
	sink := &recordingSink{}
	res, err := runCell(a, arena.CellRequest{
		Key: "after", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 3,
		Seed: func(rep int) uint64 { return uint64(rep + 1) }, Sink: sink,
	})
	if err != nil || res.Errors != 0 {
		t.Fatalf("arena unusable after cancelled RunCells: %v / %+v", err, res)
	}
}

// TestRunCellContextExpiry: a context that expires while a cell is in
// flight stops submission, but the cell still runs to completion and is
// delivered, and the arena drains cleanly afterwards.
func TestRunCellContextExpiry(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &recordingSink{}
	var got []arena.CellResult
	err = a.RunCells(ctx, 2, func(int) arena.CellRequest {
		cancel()
		return arena.CellRequest{
			Key: "abandoned", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 2,
			Seed: func(rep int) uint64 { return uint64(rep + 1) }, Sink: sink,
		}
	}, func(_ int, r arena.CellResult) { got = append(got, r) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells returned %v, want context.Canceled", err)
	}
	if len(got) != 1 || got[0].Reps != 2 || len(sink.results) != 2 {
		t.Fatalf("in-flight cell: delivered %+v, folded %d repetitions", got, len(sink.results))
	}
	done := make(chan error, 1)
	go func() { done <- a.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a cancelled cell")
	}
}

// TestRunCellsRoundRobinAcrossCalls: placement carries on from one call
// to the next, so consecutive one-cell callers on a shared arena are
// served by different shards instead of all queueing on shard 0.
func TestRunCellsRoundRobinAcrossCalls(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cr := arena.CellRequest{
		Key: "one", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 1,
		Seed: func(int) uint64 { return 1 }, Sink: &recordingSink{},
	}
	first, err := runCell(a, cr)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runCell(a, cr)
	if err != nil {
		t.Fatal(err)
	}
	if first.Shard == second.Shard {
		t.Fatalf("two consecutive one-cell calls both ran on shard %d", first.Shard)
	}
}

// TestCellMetricsQueuedGauge: a cell charges its own bundle's queued
// gauge when it is enqueued and returns the slot when served, so the
// gauge reads exactly 0 after a drain even when the arena has no bundle
// of its own.
func TestCellMetricsQueuedGauge(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	m := arena.NewMetrics(metrics.NewRegistry(), "path", "cell")
	err = a.RunCells(context.Background(), 9, func(c int) arena.CellRequest {
		return arena.CellRequest{
			Key: fmt.Sprintf("c-%d", c), N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 4,
			Seed: func(rep int) uint64 { return cellSeed(c, rep) }, Sink: &recordingSink{}, Metrics: m,
		}
	}, func(int, arena.CellResult) {})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Queued.Value(); got != 0 {
		t.Fatalf("queued gauge = %d after the cells drained, want 0", got)
	}
	if got := m.Latency.Count(); got != 9*4 {
		t.Fatalf("latency histogram holds %d observations, want %d", got, 9*4)
	}
}
