package arena

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
)

// runTracedBatch serves count derived instances on a traced arena and
// returns the capture set and the report.
func runTracedBatch(t *testing.T, seed uint64, count int, tc *TraceConfig) ([]trace.Instance, *Report) {
	t.Helper()
	a, err := New(Config{Shards: 2, Workers: 2, Seed: seed, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, 0, count)
	chans := make([]<-chan Result, count)
	for i := 0; i < count; i++ {
		done, err := a.Submit(fmt.Sprintf("key-%04d", i), i%2)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = done
	}
	for _, ch := range chans {
		results = append(results, <-ch)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(a.Config(), results)
	rep.Trace = a.Traces()
	return rep.Trace, rep
}

func TestArenaTraceCapture(t *testing.T) {
	traces, _ := runTracedBatch(t, 11, 40, &TraceConfig{PerShard: 3})
	if len(traces) == 0 {
		t.Fatal("traced arena captured nothing")
	}
	if len(traces) > 2*3 {
		t.Fatalf("captured %d instances, budget is 6", len(traces))
	}
	for _, inst := range traces {
		if len(inst.Events) == 0 {
			t.Fatalf("capture %q has no events", inst.Key)
		}
		if inst.Model != "sched" {
			t.Fatalf("capture %q has model %q", inst.Key, inst.Model)
		}
	}
	// Most-interesting-first: last rounds are non-increasing within the
	// non-violating captures.
	for i := 1; i < len(traces); i++ {
		if traces[i-1].Err == "" && traces[i].Err == "" && traces[i-1].LastRound < traces[i].LastRound {
			t.Fatalf("captures out of rank order: %d before %d", traces[i-1].LastRound, traces[i].LastRound)
		}
	}
}

// TestArenaTraceDeterministic runs the same batch twice and requires
// byte-identical traced reports: capture selection must not depend on
// worker scheduling.
func TestArenaTraceDeterministic(t *testing.T) {
	_, rep1 := runTracedBatch(t, 7, 60, &TraceConfig{PerShard: 2})
	_, rep2 := runTracedBatch(t, 7, 60, &TraceConfig{PerShard: 2})
	j1, err := rep1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := rep2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("traced reports differ across identical runs:\n%s\n---\n%s", j1, j2)
	}
}

// TestArenaTraceOffKeepsReportBytes verifies the omitempty keying: a
// report built without tracing marshals to the same bytes as before the
// trace block existed (no "trace" key at all).
func TestArenaTraceOffKeepsReportBytes(t *testing.T) {
	a, err := New(Config{Shards: 1, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Propose(context.Background(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.Traces(); got != nil {
		t.Fatalf("untraced arena returned traces: %v", got)
	}
	rep := BuildReport(a.Config(), []Result{res})
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["trace"]; ok {
		t.Fatalf("untraced report contains a trace key:\n%s", b)
	}
}

// TestArenaTraceKeepsViolations runs a cell whose every instance must
// fail (an adversary the model cannot run) beside clean cells on a
// traced shared arena, and requires the violating capture to rank first
// once the cells' captures merge per logical shard.
func TestArenaTraceKeepsViolations(t *testing.T) {
	a, err := New(Config{Shards: 2, Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := engine.ResolveAdversary("antileader:m=4")
	if err != nil {
		t.Fatal(err)
	}
	msgnetModel, err := engine.ByName("msgnet")
	if err != nil {
		t.Fatal(err)
	}
	tc := &TraceConfig{PerShard: 2}
	const cells = 5
	shards := make([][]trace.Instance, a.Shards())
	err = a.RunCells(context.Background(), cells, func(c int) CellRequest {
		cr := CellRequest{
			Key: fmt.Sprintf("ok-%d", c), N: 4, Noise: dist.Exponential{MeanVal: 1}, Reps: 10,
			Seed: func(rep int) uint64 { return uint64(c*100 + rep) }, Sink: discardSink{}, Trace: tc,
		}
		if c == 3 {
			// msgnet rejects adversarial schedules with the engine's typed
			// error: a guaranteed violating one-rep cell.
			cr = CellRequest{
				Model: msgnetModel, Key: "bad", N: 4, Adversary: adv, Reps: 1,
				Seed: func(int) uint64 { return 1 }, Sink: discardSink{}, Trace: tc,
			}
		}
		return cr
	}, func(c int, r CellResult) {
		if (c == 3) != (r.FirstErr != nil) {
			t.Errorf("cell %d: first error %v", c, r.FirstErr)
		}
		shards[c%len(shards)] = append(shards[c%len(shards)], r.Traces...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	traces := tc.Merge(shards)
	if len(traces) != 2*len(shards) || traces[0].Err == "" || traces[0].Key != "bad,rep=0" {
		t.Fatalf("violating instance not ranked first: %+v", traces)
	}
}

// discardSink drops every repetition.
type discardSink struct{}

func (discardSink) Add(int, Result) {}

// TestTraceKeeperBudget unit-tests the top-K insert: ranks hold under
// arbitrary offer order and the budget is never exceeded.
func TestTraceKeeperBudget(t *testing.T) {
	st := &traceKeeper{k: 3}
	rec := trace.NewRecorder(8)
	rec.Append(trace.Event{Kind: trace.KindOp})
	offer := func(key string, lastRound int) {
		st.consider("sched", engine.Spec{Key: key, N: 2, Seed: 1},
			Result{Key: key, LastRound: lastRound}, rec)
	}
	for i, lr := range []int{5, 1, 9, 3, 7, 2, 8} {
		offer(fmt.Sprintf("k%d", i), lr)
	}
	kept := st.snapshot()
	if len(kept) != 3 {
		t.Fatalf("kept %d, want 3", len(kept))
	}
	want := []int{9, 8, 7}
	for i, inst := range kept {
		if inst.LastRound != want[i] {
			t.Fatalf("kept rounds = %v, want %v", kept, want)
		}
		if len(inst.Events) != 1 {
			t.Fatalf("kept instance %q lost its events", inst.Key)
		}
	}
}
