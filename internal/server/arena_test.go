package server_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"leanconsensus"
	"leanconsensus/internal/server"
)

// TestJobDrainLeavesQueueGaugeAtZero pins the queued-requests gauge of a
// job spec's metric series: each cell charges the spec's own bundle when
// it is enqueued and returns the slot when it is served, so after a job
// drains the gauge reads exactly 0 — not a negative count left by
// decrements whose charges landed elsewhere.
func TestJobDrainLeavesQueueGaugeAtZero(t *testing.T) {
	_, client := newTestServer(t, server.Config{Shards: 2, Workers: 2})
	ctx := context.Background()
	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Model: "sched", Dist: "exponential", N: 8, Seed: 3, Instances: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(ctx, id); err != nil {
		t.Fatal(err)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const series = `{model="sched",dist="exponential",adversary="zero"}`
	if got := metricValue(t, text, "leanconsensus_queued_requests"+series); got != 0 {
		t.Fatalf("queued gauge = %v after the job drained, want 0", got)
	}
	if got := metricValue(t, text, "leanconsensus_instance_latency_seconds_count"+series); got != 100 {
		t.Fatalf("latency histogram holds %v observations, want one per instance (100)", got)
	}
}

// isolationJobs are the jobs the shared-arena isolation test runs: two
// large ones of different models and a three-instance one, so a cell
// from one job is always in flight beside another's.
var isolationJobs = []leanconsensus.JobSpec{
	{Model: "sched", Dist: "exponential", N: 8, Seed: 11, Instances: 900},
	{Model: "hybrid", N: 16, Seed: 12, Instances: 300},
	{Model: "sched", Dist: "two-point", N: 4, Seed: 13, Instances: 3},
}

// jobOutcome is everything deterministic a traced job serves: its
// results without the wall-clock fields, and its /trace capture blocks.
type jobOutcome struct {
	results []leanconsensus.SpecResult
	trace   string
}

// runTracedJob submits spec with a trace budget of 2 and waits for its
// outcome.
func runTracedJob(t *testing.T, client *leanconsensus.Client, spec leanconsensus.JobSpec) jobOutcome {
	t.Helper()
	ctx := context.Background()
	id, err := client.SubmitJobsTraced(ctx, 2, spec)
	if err != nil {
		t.Error(err)
		return jobOutcome{}
	}
	st, err := client.WaitJob(ctx, id)
	if err != nil {
		t.Error(err)
		return jobOutcome{}
	}
	jt, err := client.JobTrace(ctx, id)
	if err != nil {
		t.Error(err)
		return jobOutcome{}
	}
	b, err := json.Marshal(jt.Specs)
	if err != nil {
		t.Error(err)
	}
	return jobOutcome{results: deterministicResults(t, st), trace: string(b)}
}

// sameOutcome fails t unless got equals want, the spec's solo run.
func sameOutcome(t *testing.T, leg string, spec leanconsensus.JobSpec, got, want jobOutcome) {
	t.Helper()
	if len(got.results) != 1 || got.results[0] != want.results[0] {
		t.Fatalf("%s: %s n=%d results differ from its solo run:\n%+v\n%+v", leg, spec.Model, spec.N, got.results, want.results)
	}
	if got.trace != want.trace {
		t.Fatalf("%s: %s n=%d /trace differs from its solo run (%d vs %d bytes)", leg, spec.Model, spec.N, len(got.trace), len(want.trace))
	}
}

// TestSharedArenaIsolation: every job and campaign shares the server's
// one arena, and a cell carries its unit's metrics bundle, trace budget
// and counters, so a job's results and captures cannot depend on what
// else runs. Each job must serve exactly what it serves alone on a fresh
// server, both when three traced jobs run at once and when jobs of
// every model run one after another on one server.
func TestSharedArenaIsolation(t *testing.T) {
	cfg := server.Config{Shards: 2, Workers: 2, MaxConcurrentJobs: 3}
	solo := func(spec leanconsensus.JobSpec) jobOutcome {
		_, client := newTestServer(t, cfg)
		return runTracedJob(t, client, spec)
	}
	want := make([]jobOutcome, len(isolationJobs))
	for i, spec := range isolationJobs {
		want[i] = solo(spec)
	}

	t.Run("concurrent", func(t *testing.T) {
		_, client := newTestServer(t, cfg)
		for round := 0; round < 5; round++ {
			got := make([]jobOutcome, len(isolationJobs))
			var wg sync.WaitGroup
			for i, spec := range isolationJobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = runTracedJob(t, client, spec)
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for i, spec := range isolationJobs {
				sameOutcome(t, "concurrent", spec, got[i], want[i])
			}
		}
	})

	t.Run("sequential", func(t *testing.T) {
		seq := []leanconsensus.JobSpec{
			{Model: "hybrid", N: 64, Seed: 21, Instances: 200},
			{Model: "msgnet", Dist: "exponential", N: 5, Seed: 22, Instances: 40},
			isolationJobs[0],
		}
		_, client := newTestServer(t, cfg)
		for i, spec := range seq {
			got := runTracedJob(t, client, spec)
			if t.Failed() {
				t.FailNow()
			}
			w := want[0]
			if i < 2 {
				w = solo(spec)
			}
			sameOutcome(t, "sequential", spec, got, w)
		}
	})
}
