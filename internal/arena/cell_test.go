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

// TestRunCellsMatchesLoop is the cell path's core identity, checked
// against an independent oracle: the same workload pushed through
// RunCells (one queue entry per cell, batched on a pooled session) on two
// pool shapes yields, rep for rep, the results of a plain loop of direct
// model runs; cells are delivered in submission order; the shard stats
// total the loop's counters; and the metrics agree with both, with one
// latency observation per repetition.
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
		a, err := arena.New(arena.Config{Shards: shape[0], Workers: shape[1], Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		sinks := make([]*recordingSink, cells)
		next := 0
		err = a.RunCells(context.Background(), cells,
			func(c int) arena.CellRequest {
				sinks[c] = &recordingSink{}
				cr := gen(c)
				cr.Sink = sinks[c]
				return cr
			},
			func(c int, r arena.CellResult) {
				if c != next {
					t.Fatalf("shape %v: delivery out of order: got cell %d, want %d", shape, c, next)
				}
				next++
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

		// Aggregate identity: the shards total exactly the loop's counters
		// (per-shard splits follow placement).
		st := a.Stats().Totals
		if st != want {
			t.Fatalf("shape %v: stats totals diverged:\n  cells %+v\n  loop  %+v", shape, st, want)
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
	res, err := a.RunCell(context.Background(), arena.CellRequest{
		Model: hy,
		Key:   "hybrid-cell",
		N:     6,
		Reps:  reps,
		Seed:  func(rep int) uint64 { return cellSeed(0, rep) },
		Sink:  sink,
	})
	if err != nil || res.Errors != 0 {
		t.Fatalf("RunCell: %v, %+v", err, res)
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

// TestSubmitCellValidation covers the client-error paths, including
// submission after Close.
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
		if _, err := a.SubmitCell(cr); err == nil {
			t.Errorf("SubmitCell accepted %s", tc.name)
		}
	}
	if _, err := a.SubmitCell(ok); err != nil {
		t.Fatalf("SubmitCell rejected a valid cell: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitCell(ok); !errors.Is(err, arena.ErrClosed) {
		t.Fatalf("SubmitCell after Close returned %v, want ErrClosed", err)
	}
}

// TestCellOnTracedArena pins the trace interaction: every repetition of
// a cell served on a traced arena is offered to the capture set under
// "<key>,rep=<i>" with its own seed, and a later Submit on the same
// worker is still captured.
func TestCellOnTracedArena(t *testing.T) {
	const reps = 30
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1, Trace: &arena.TraceConfig{PerShard: reps + 1}})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	_, err = a.RunCell(context.Background(), arena.CellRequest{
		Key: "batched", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: reps,
		Seed: func(rep int) uint64 { return uint64(rep + 1) },
		Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Propose(context.Background(), "submitted", 1)
	if err != nil || res.Err != nil {
		t.Fatalf("Submit after cell: %v / %v", err, res.Err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	traces := a.Traces()
	if len(traces) != reps+1 {
		t.Fatalf("captured %d instances, want %d cell repetitions and one Submit", len(traces), reps+1)
	}
	seen := make(map[string]bool)
	for _, inst := range traces {
		seen[inst.Key] = true
		if len(inst.Events) == 0 {
			t.Fatalf("capture %q has no events", inst.Key)
		}
		var rep int
		if _, err := fmt.Sscanf(inst.Key, "batched,rep=%d", &rep); err == nil {
			if inst.Seed != uint64(rep+1) || inst.LastRound != sink.results[rep].LastRound {
				t.Fatalf("capture %q does not describe repetition %d: %+v", inst.Key, rep, inst)
			}
		}
	}
	for rep := 0; rep < reps; rep++ {
		if !seen[fmt.Sprintf("batched,rep=%d", rep)] {
			t.Fatalf("repetition %d not captured: %v", rep, seen)
		}
	}
	if !seen["submitted"] {
		t.Fatalf("Submit after a cell not captured: %v", seen)
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
	res, err := a.RunCell(context.Background(), arena.CellRequest{
		Key: "after", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 3,
		Seed: func(rep int) uint64 { return uint64(rep + 1) }, Sink: sink,
	})
	if err != nil || res.Errors != 0 {
		t.Fatalf("arena unusable after cancelled RunCells: %v / %+v", err, res)
	}
}

// TestRunCellContextExpiry: an expired wait abandons the result but the
// cell still runs; the arena drains cleanly afterwards.
func TestRunCellContextExpiry(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = a.RunCell(ctx, arena.CellRequest{
		Key: "abandoned", N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 2,
		Seed: func(rep int) uint64 { return uint64(rep + 1) }, Sink: &recordingSink{},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCell returned %v, want context.Canceled", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with an abandoned cell in flight")
	}
}
