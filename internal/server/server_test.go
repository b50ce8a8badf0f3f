package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/server"
)

// newTestServer boots a server on an httptest listener and returns the
// typed client pointed at it.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *leanconsensus.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, leanconsensus.NewClient(ts.URL)
}

// metricValue extracts one sample value from a Prometheus text
// exposition, matching the full sample name exactly.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, sample+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("sample %q not found in metrics output:\n%s", sample, text)
	return 0
}

// TestEndToEndBatch is the subsystem's acceptance test: a batched
// submit of more than 10k instances across two execution models,
// streamed progress, and /metrics decision counters exactly matching
// the returned results.
func TestEndToEndBatch(t *testing.T) {
	_, client := newTestServer(t, server.Config{Shards: 8, Workers: 2})
	ctx := context.Background()

	specs := []leanconsensus.JobSpec{
		{Model: "sched", Dist: "exponential", N: 8, Seed: 1, Instances: 6000},
		{Model: "hybrid", N: 8, Seed: 2, Instances: 5000},
	}
	id, err := client.SubmitJobs(ctx, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty job id")
	}

	var events int
	final, err := client.StreamJob(ctx, id, func(st leanconsensus.JobStatus) {
		events++
		if st.ID != id {
			t.Errorf("stream event for job %q, want %q", st.ID, id)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if events < 1 {
		t.Error("stream delivered no progress events before done")
	}
	if final.Status != leanconsensus.JobDone {
		t.Fatalf("final status %q: %+v", final.Status, final)
	}

	if len(final.Specs) != len(specs) {
		t.Fatalf("final status has %d specs, want %d", len(final.Specs), len(specs))
	}
	for i, ss := range final.Specs {
		res := ss.Result
		if res == nil {
			t.Fatalf("spec %d has no result", i)
		}
		if res.Errors != 0 {
			t.Fatalf("spec %d: %d instance errors", i, res.Errors)
		}
		if got := res.Decided0 + res.Decided1; got != int64(specs[i].Instances) {
			t.Errorf("spec %d decided %d of %d instances", i, got, specs[i].Instances)
		}
		if ss.Done != int64(specs[i].Instances) {
			t.Errorf("spec %d progress ended at %d of %d", i, ss.Done, specs[i].Instances)
		}
		var perShard int64
		for _, c := range ss.PerShard {
			perShard += c
		}
		if perShard != int64(specs[i].Instances) {
			t.Errorf("spec %d per-shard progress sums to %d, want %d", i, perShard, specs[i].Instances)
		}
	}

	// The telemetry must agree exactly with the returned results.
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, ss := range final.Specs {
		labels := fmt.Sprintf(`model=%q,dist=%q,adversary=%q`, ss.Result.Model, ss.Result.Dist, ss.Result.Adversary)
		d0 := metricValue(t, text, fmt.Sprintf(`leanconsensus_decisions_total{%s,value="0"}`, labels))
		d1 := metricValue(t, text, fmt.Sprintf(`leanconsensus_decisions_total{%s,value="1"}`, labels))
		if int64(d0) != ss.Result.Decided0 || int64(d1) != ss.Result.Decided1 {
			t.Errorf("spec %d: metrics report decisions [%v %v], result says [%d %d]",
				i, d0, d1, ss.Result.Decided0, ss.Result.Decided1)
		}
		rounds := metricValue(t, text, fmt.Sprintf(`leanconsensus_rounds_total{%s}`, labels))
		if int64(rounds) != ss.Result.RoundSum {
			t.Errorf("spec %d: metrics report round sum %v, result says %d", i, rounds, ss.Result.RoundSum)
		}
		ops := metricValue(t, text, fmt.Sprintf(`leanconsensus_ops_total{%s}`, labels))
		if int64(ops) != ss.Result.Ops {
			t.Errorf("spec %d: metrics report op sum %v, result says %d", i, ops, ss.Result.Ops)
		}
		lat := metricValue(t, text, fmt.Sprintf(`leanconsensus_instance_latency_seconds_count{%s}`, labels))
		if int64(lat) != int64(specs[i].Instances) {
			t.Errorf("spec %d: latency histogram holds %v observations, want %d", i, lat, specs[i].Instances)
		}
	}
	if q := metricValue(t, text, "leanconsensus_queued_instances"); q != 0 {
		t.Errorf("queued_instances = %v after drain, want 0", q)
	}
	if done := metricValue(t, text, `leanconsensus_jobs_total{event="completed"}`); done != 1 {
		t.Errorf("jobs completed counter = %v, want 1", done)
	}
}

// TestDeterministicReplay submits the same spec twice and expects
// byte-identical deterministic fields.
func TestDeterministicReplay(t *testing.T) {
	_, client := newTestServer(t, server.Config{Shards: 4, Workers: 2})
	ctx := context.Background()
	spec := leanconsensus.JobSpec{Model: "msgnet", Dist: "two-point", N: 6, Seed: 42, Instances: 400}

	run := func() *leanconsensus.SpecResult {
		id, err := client.SubmitJobs(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := client.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return st.Specs[0].Result
	}
	a, b := run(), run()
	a.ElapsedMS, b.ElapsedMS = 0, 0
	a.Throughput, b.Throughput = 0, 0
	if *a != *b {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
}

// shardsSpecs are the inputs of the -shards regression tests: a sched
// spec under an adversary with a non-default dist, and a hybrid spec.
var shardsSpecs = []leanconsensus.JobSpec{
	{Model: "sched", Dist: "uniform", Adversary: "antileader:m=2", N: 8, Seed: 42, Instances: 777},
	{Model: "hybrid", Adversary: "sticky", N: 8, Seed: 5, Instances: 500},
}

// runSpecs submits specs to a fresh server of the given pool shape and
// returns each spec's result with the wall-clock fields zeroed.
func runSpecs(t *testing.T, cfg server.Config, specs ...leanconsensus.JobSpec) []leanconsensus.SpecResult {
	t.Helper()
	_, client := newTestServer(t, cfg)
	ctx := context.Background()
	id, err := client.SubmitJobs(ctx, specs...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return deterministicResults(t, st)
}

// deterministicResults extracts a finished job's results with the
// wall-clock fields zeroed.
func deterministicResults(t *testing.T, st *leanconsensus.JobStatus) []leanconsensus.SpecResult {
	t.Helper()
	if st.Status != leanconsensus.JobDone {
		t.Fatalf("job finished as %q: %s", st.Status, st.Error)
	}
	out := make([]leanconsensus.SpecResult, len(st.Specs))
	for i, ss := range st.Specs {
		if ss.Result == nil {
			t.Fatalf("spec %d has no result", i)
		}
		out[i] = *ss.Result
		out[i].ElapsedMS, out[i].Throughput = 0, 0
	}
	return out
}

// TestJobResultsInvariantAcrossShards is the -shards regression test: a
// job spec's deterministic result is a pure function of the spec —
// identical at every pool shape, and equal to the one-cell campaign with
// the same model, dist, adversary, n, seed, and reps = instances.
func TestJobResultsInvariantAcrossShards(t *testing.T) {
	var golden []leanconsensus.SpecResult
	for _, shape := range [][2]int{{1, 1}, {2, 1}, {3, 2}} {
		got := runSpecs(t, server.Config{Shards: shape[0], Workers: shape[1]}, shardsSpecs...)
		if golden == nil {
			golden = got
			continue
		}
		for i := range got {
			if got[i] != golden[i] {
				t.Fatalf("spec %d at shards×workers %d×%d differs from 1×1:\n%+v\n%+v", i, shape[0], shape[1], got[i], golden[i])
			}
		}
	}
	for i, spec := range shardsSpecs {
		var dists []string
		if spec.Dist != "" {
			dists = []string{spec.Dist}
		}
		rep, err := campaign.Run(context.Background(), campaign.Spec{
			Models: []string{spec.Model}, Dists: dists, Adversaries: []string{spec.Adversary},
			Ns: []int{spec.N}, Seeds: []uint64{spec.Seed}, Reps: spec.Instances,
		}, campaign.Config{Shards: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cell, res := rep.Cells[0], golden[i]
		if res.Decided0 != cell.Decided0 || res.Decided1 != cell.Decided1 || res.Ops != cell.Ops ||
			res.Errors != cell.Errors || res.MaxRound != cell.MaxLastRound {
			t.Fatalf("spec %d differs from its one-cell campaign:\njob      %+v\ncampaign %+v", i, res, cell)
		}
	}
}

func TestRejectsBadRequests(t *testing.T) {
	_, client := newTestServer(t, server.Config{MaxBatch: 4})
	ctx := context.Background()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(client.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"jobs": [`},
		{"trailing garbage", `{"jobs":[{"instances":1}]} 17`},
		{"unknown field", `{"jobs":[{"instances":1,"bogus":true}]}`},
		{"empty batch", `{"jobs":[]}`},
		{"no body", ``},
		{"zero instances", `{"jobs":[{"model":"sched"}]}`},
		{"unknown model", `{"jobs":[{"model":"quantum","instances":1}]}`},
		{"unknown variant", `{"jobs":[{"variant":"nope","instances":1}]}`},
		{"unservable variant", `{"jobs":[{"variant":"backup","instances":1}]}`},
		{"unknown dist", `{"jobs":[{"dist":"zipf","instances":1}]}`},
		{"noise-free model with dist", `{"jobs":[{"model":"hybrid","dist":"uniform","instances":1}]}`},
		{"n too large", `{"jobs":[{"n":999999,"instances":1}]}`},
		{"batch too large", `{"jobs":[{"instances":1},{"instances":1},{"instances":1},{"instances":1},{"instances":1}]}`},
	}
	for _, tc := range cases {
		if code := post(tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	if _, err := client.Job(ctx, "j-999999"); err == nil {
		t.Error("unknown job id did not error")
	} else {
		var apiErr *leanconsensus.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job id returned %v, want 404 APIError", err)
		}
	}
	if _, err := client.StreamJob(ctx, "j-999999", nil); err == nil {
		t.Error("streaming an unknown job did not error")
	}
}

func TestAdmissionControl(t *testing.T) {
	// The gated model keeps the first batch's instances parked in the
	// admission queue, so the 429 window is deterministic rather than a
	// race against the pool's throughput.
	release := gateSlowModel(t)
	_, client := newTestServer(t, server.Config{
		Shards: 1, Workers: 1, HighWater: 100, MaxConcurrentJobs: 1,
	})
	ctx := context.Background()

	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Model: "slowtest", Instances: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.SubmitJobs(ctx, leanconsensus.JobSpec{Instances: 95, Seed: 2})
	var overload *leanconsensus.OverloadedError
	if !errors.As(err, &overload) {
		t.Fatalf("batch past the high-water mark returned %v, want OverloadedError", err)
	}
	if overload.RetryAfter < time.Second {
		t.Errorf("Retry-After %v, want >= 1s", overload.RetryAfter)
	}

	release()
	if _, err := client.WaitJob(ctx, id); err != nil {
		t.Fatal(err)
	}
	// Queue drained: the same batch is now admitted.
	if _, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Instances: 95, Seed: 2}); err != nil {
		t.Fatalf("submit after drain failed: %v", err)
	}
}

func TestOversizedBatchAdmittedOnEmptyQueue(t *testing.T) {
	// A batch larger than the high-water mark must still be schedulable
	// when nothing is queued, or a legal batch could never run.
	_, client := newTestServer(t, server.Config{Shards: 2, Workers: 2, HighWater: 10})
	ctx := context.Background()
	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Instances: 500, Seed: 1})
	if err != nil {
		t.Fatalf("oversized batch on an empty queue must be admitted: %v", err)
	}
	if _, err := client.WaitJob(ctx, id); err != nil {
		t.Fatal(err)
	}
}

func TestModelsAndHealth(t *testing.T) {
	_, client := newTestServer(t, server.Config{})
	ctx := context.Background()

	cat, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, m := range cat.Models {
		names[m.Name] = true
	}
	for _, want := range []string{"sched", "hybrid", "msgnet"} {
		if !names[want] {
			t.Errorf("catalog missing model %q", want)
		}
	}
	servable := false
	for _, v := range cat.Variants {
		if v.Name == "lean" && v.Servable {
			servable = true
		}
	}
	if !servable {
		t.Error("catalog does not mark lean as servable")
	}
	found := false
	for _, d := range cat.Dists {
		found = found || d == "exponential"
	}
	if !found {
		t.Error("catalog missing distribution exponential")
	}

	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health status %q, want ok", h.Status)
	}
}

// TestClientEscapesIDs holds the client to one path segment per ID. An
// ID carrying '/', '?' or '#' names no resource, so it must answer 404,
// never a different resource: the job's trace body decoded as its
// status, or the job itself with the rest sent as a query or dropped as
// a fragment.
func TestClientEscapesIDs(t *testing.T) {
	_, client := newTestServer(t, server.Config{Shards: 2, Workers: 1})
	ctx := context.Background()
	jid, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Seed: 1, Instances: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(ctx, jid); err != nil {
		t.Fatal(err)
	}
	cid, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Reps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitCampaign(ctx, cid); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, id string
		get      func(id string) error
	}{
		{"Job", jid, func(id string) error { _, err := client.Job(ctx, id); return err }},
		{"JobTrace", jid, func(id string) error { _, err := client.JobTrace(ctx, id); return err }},
		{"StreamJob", jid, func(id string) error { _, err := client.StreamJob(ctx, id, nil); return err }},
		{"Campaign", cid, func(id string) error { _, err := client.Campaign(ctx, id); return err }},
		{"StreamCampaign", cid, func(id string) error { _, err := client.StreamCampaign(ctx, id, nil); return err }},
	} {
		if err := c.get(c.id); err != nil {
			t.Fatalf("%s(%q): %v", c.name, c.id, err)
		}
		for _, suffix := range []string{"/trace", "?x=1", "#frag"} {
			var apiErr *leanconsensus.APIError
			if err := c.get(c.id + suffix); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
				t.Errorf("%s(%q) = %v, want a 404 *APIError", c.name, c.id+suffix, err)
			}
		}
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, client := newTestServer(t, server.Config{Shards: 2, Workers: 2})
	ctx := context.Background()

	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Instances: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Close concurrently with the running job: it must block until the
	// job has drained, and the job must complete normally.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	st, err := client.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs[0].Result == nil || st.Specs[0].Result.Decided0+st.Specs[0].Result.Decided1 != 3000 {
		t.Fatalf("drained job incomplete: %+v", st.Specs[0])
	}
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after the job drained")
	}

	// Draining servers reject new work and report it on /healthz.
	_, err = client.SubmitJobs(ctx, leanconsensus.JobSpec{Instances: 1})
	var apiErr *leanconsensus.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close returned %v, want 503", err)
	}
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status %q after Close, want draining", h.Status)
	}
}

func TestDecodeSubmit(t *testing.T) {
	b, err := server.DecodeSubmit(strings.NewReader(
		`{"jobs":[{"model":"sched","dist":"uniform","n":4,"seed":3,"instances":10}]}`), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) != 1 || b.Jobs[0].N != 4 || b.Jobs[0].DistName != "uniform" {
		t.Fatalf("decoded %+v", b.Jobs)
	}
	if _, err := server.DecodeSubmit(strings.NewReader(`{"jobs":[{"instances":0}]}`), 8); err == nil {
		t.Fatal("zero instances decoded without error")
	}
}
