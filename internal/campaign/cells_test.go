package campaign

import (
	"bytes"
	"context"
	"testing"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/engine"
)

// loopReport is the independent oracle for the cell path: every cell of
// c run as a plain loop of direct model runs — InstanceSeed seeds, the
// half-and-half inputs, a fresh session per run — folded into CellStats in
// repetition order. No arena, no worker, no sink.
func loopReport(t *testing.T, c *Campaign) *Report {
	t.Helper()
	results := make([]*CellStats, len(c.Cells))
	for i, cell := range c.Cells {
		job := cell.Job
		inputs := make([]int, job.N)
		for p := job.N / 2; p < job.N; p++ {
			inputs[p] = 1
		}
		cs := &CellStats{}
		for rep := 0; rep < job.Instances; rep++ {
			r, err := job.Model.Run(engine.Spec{
				Key: cell.Key, N: job.N, Inputs: inputs, Noise: job.Noise,
				Adversary: job.Adversary, Seed: InstanceSeed(job.Seed, job.N, rep),
			}, nil)
			res := arena.Result{Key: cell.Key, Err: err}
			if err == nil {
				res.Value, res.FirstRound, res.LastRound = r.Value, r.FirstRound, r.LastRound
				res.Ops, res.SimTime = r.Ops, r.SimTime
			}
			cs.Add(job.N, res)
		}
		results[i] = cs
	}
	return c.buildReport(results)
}

// TestCellsMatchLoop holds Run to the loop oracle byte for byte: the
// micro grid, an adversarial grid, and hybrid cells, each on two pool
// shapes, must report exactly what the plain loop folds.
func TestCellsMatchLoop(t *testing.T) {
	specs := map[string]Spec{
		"micro": {
			Name:  "micro",
			Dists: []string{"exponential", "uniform"},
			Ns:    []int{4, 8},
			Seeds: []uint64{1, 2},
			Reps:  20,
		},
		"adversarial": {
			Name:        "adv",
			Models:      []string{"sched"},
			Dists:       []string{"exponential"},
			Adversaries: []string{"zero", "antileader:m=2", "random:m=1:seed=7"},
			Ns:          []int{4, 8},
			Seeds:       []uint64{3},
			Reps:        10,
		},
		"hybrid": {
			Name:        "hybrid",
			Models:      []string{"hybrid"},
			Adversaries: []string{"zero", "sticky"},
			Ns:          []int{8},
			Seeds:       []uint64{5},
			Reps:        20,
		},
	}
	for name, spec := range specs {
		c, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := loopReport(t, c)
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range [][2]int{{2, 2}, {5, 1}} {
			got, err := c.Run(context.Background(), Config{Shards: shape[0], Workers: shape[1]})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, shape, err)
			}
			gotJSON, err := got.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s on %v: cell report differs from the loop oracle:\n%s\nvs\n%s", name, shape, gotJSON, wantJSON)
			}
			if got.CSV() != want.CSV() {
				t.Fatalf("%s on %v: cell CSV differs from the loop oracle", name, shape)
			}
		}
	}
}
