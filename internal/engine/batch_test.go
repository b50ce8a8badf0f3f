package engine_test

import (
	"fmt"
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
)

// batchSeed is the seed derivation the batch tests share with their
// one-at-a-time baselines.
func batchSeed(rep int) uint64 { return uint64(rep)*2654435761 + 1 }

// TestRunBatchMatchesSequential pins the batch primitive's contract:
// running a cell through RunBatch on one pooled session yields exactly
// the results of running each repetition individually on a fresh
// session, in repetition order, for every model.
func TestRunBatchMatchesSequential(t *testing.T) {
	inputs := []int{0, 1, 0, 1, 0, 1}
	noise := dist.Exponential{MeanVal: 1}
	for _, name := range []string{"sched", "hybrid", "msgnet"} {
		m, err := engine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := engine.Spec{Key: "batch", N: len(inputs), Inputs: inputs, Noise: noise}
		const reps = 25
		type outcome struct {
			r   engine.Result
			err error
		}
		var batched []outcome
		lastRep := -1
		engine.RunBatch(m, spec, engine.NewSession(), reps, batchSeed,
			func(rep int, r engine.Result, err error) {
				if rep != lastRep+1 {
					t.Fatalf("%s: repetition %d delivered after %d", name, rep, lastRep)
				}
				lastRep = rep
				batched = append(batched, outcome{r, err})
			})
		if len(batched) != reps {
			t.Fatalf("%s: %d results, want %d", name, len(batched), reps)
		}
		for rep := 0; rep < reps; rep++ {
			spec.Seed = batchSeed(rep)
			r, err := m.Run(spec, nil)
			if (err == nil) != (batched[rep].err == nil) {
				t.Fatalf("%s rep %d: batched err %v, sequential err %v", name, rep, batched[rep].err, err)
			}
			if r != batched[rep].r {
				t.Fatalf("%s rep %d: batched %+v, sequential %+v", name, rep, batched[rep].r, r)
			}
		}
	}
}

// TestRunBatchZeroAllocs is the cell path's headline property: once the
// session is warm, an entire batch of repetitions — reseed, run, deliver
// — allocates nothing at all, for sched and for the pooled hybrid
// scheduler at a small and a large instance size.
func TestRunBatchZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		model string
		n     int
	}{
		{"sched", 8},
		{"hybrid", 8},
		{"hybrid", 64},
	} {
		t.Run(fmt.Sprintf("%s/n%d", tc.model, tc.n), func(t *testing.T) {
			m, err := engine.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			sess := engine.NewSession()
			inputs := make([]int, tc.n)
			for i := range inputs {
				inputs[i] = i % 2
			}
			var noise dist.Distribution = dist.Exponential{MeanVal: 1}
			spec := engine.Spec{Key: "batch", N: len(inputs), Inputs: inputs, Noise: noise}
			decided := 0
			fn := func(rep int, r engine.Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				decided++
			}
			run := func() { engine.RunBatch(m, spec, sess, 50, batchSeed, fn) }
			run() // warm the session
			if avg := testing.AllocsPerRun(5, run); avg != 0 {
				t.Fatalf("batch of 50 %s repetitions allocates %.1f times, want 0", tc.model, avg)
			}
			if decided == 0 {
				t.Fatal("no repetitions ran")
			}
		})
	}
}

// BenchmarkRunBatch measures the batched cell loop per repetition — the
// number BENCH_<n>.json's campaign/batch probe tracks end to end through
// the arena.
func BenchmarkRunBatch(b *testing.B) {
	m, err := engine.ByName("sched")
	if err != nil {
		b.Fatal(err)
	}
	sess := engine.NewSession()
	inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
	var noise dist.Distribution = dist.Exponential{MeanVal: 1}
	spec := engine.Spec{Key: "batch", N: len(inputs), Inputs: inputs, Noise: noise}
	fn := func(rep int, r engine.Result, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i += 100 {
		reps := 100
		if rem := b.N - i; rem < reps {
			reps = rem
		}
		engine.RunBatch(m, spec, sess, reps, batchSeed, fn)
	}
}
