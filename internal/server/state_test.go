package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/server"
)

// newStateServer boots a server persisting its service state to dir.
// Unlike newTestServer it returns an explicit stop so restart tests can
// shut the first incarnation down mid-test.
func newStateServer(t *testing.T, dir string, cfg server.Config) (*server.Server, *leanconsensus.Client, func()) {
	t.Helper()
	cfg.StateDir = dir
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			srv.Close()
			ts.Close()
		}
	}
	t.Cleanup(stop)
	return srv, leanconsensus.NewClient(ts.URL), stop
}

// idNum parses the numeric tail of a j-%06d / c-%06d ID.
func idNum(t *testing.T, id string) uint64 {
	t.Helper()
	i := strings.IndexByte(id, '-')
	if i < 0 {
		t.Fatalf("malformed id %q", id)
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		t.Fatalf("malformed id %q: %v", id, err)
	}
	return n
}

// TestStateRestartServesFinishedWork is the durable-state acceptance
// test for terminal records: a job and a campaign finished before a
// restart resolve at the same IDs on the next process, serving the
// stored final snapshots verbatim, and the ID sequences continue past
// the pre-restart counters.
func TestStateRestartServesFinishedWork(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, client, stop := newStateServer(t, dir, server.Config{})
	jid, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 10, Seed: 1, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	jobBefore, err := client.WaitJob(ctx, jid)
	if err != nil {
		t.Fatal(err)
	}
	cid, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{
		Name: "state", Ns: []int{2}, Seeds: []uint64{1, 2}, Reps: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	campBefore, err := client.WaitCampaign(ctx, cid)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	_, client2, _ := newStateServer(t, dir, server.Config{})
	jobAfter, err := client2.Job(ctx, jid)
	if err != nil {
		t.Fatalf("pre-restart job %s unresolvable after restart: %v", jid, err)
	}
	// The restored snapshot is the stored record, wall-clock fields and
	// all: byte-compare the whole status.
	wantJob, _ := json.Marshal(jobBefore)
	gotJob, _ := json.Marshal(jobAfter)
	if string(wantJob) != string(gotJob) {
		t.Errorf("restored job status differs:\npre-restart  %s\npost-restart %s", wantJob, gotJob)
	}
	if jobAfter.Tenant != "acme" {
		t.Errorf("restored job lost its tenant: %q", jobAfter.Tenant)
	}
	campAfter, err := client2.Campaign(ctx, cid)
	if err != nil {
		t.Fatalf("pre-restart campaign %s unresolvable after restart: %v", cid, err)
	}
	wantCamp, _ := json.Marshal(campBefore)
	gotCamp, _ := json.Marshal(campAfter)
	if string(wantCamp) != string(gotCamp) {
		t.Errorf("restored campaign status differs:\npre-restart  %s\npost-restart %s", wantCamp, gotCamp)
	}

	// ID sequences continue: the next submissions mint strictly larger
	// numbers, never a client's existing ID.
	jid2, err := client2.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if idNum(t, jid2) <= idNum(t, jid) {
		t.Errorf("restarted server minted job ID %s at or below pre-restart %s", jid2, jid)
	}
	cid2, err := client2.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if idNum(t, cid2) <= idNum(t, cid) {
		t.Errorf("restarted server minted campaign ID %s at or below pre-restart %s", cid2, cid)
	}
	if _, err := client2.WaitJob(ctx, jid2); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.WaitCampaign(ctx, cid2); err != nil {
		t.Fatal(err)
	}
}

// TestStateCampaignResumesByteIdentical pins the restart-resume
// guarantee: a campaign interrupted by a checkpoint-and-stop drain
// resumes at the next boot on the same state dir and produces a report
// byte-identical to an uninterrupted run of the same spec.
func TestStateCampaignResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	release := gateSlowModel(t)

	spec := leanconsensus.CampaignSpec{
		Name: "resume", Models: []string{"slowtest"},
		Ns: []int{2}, Seeds: []uint64{1, 2, 3}, Reps: 2,
	}

	srv1, client1, stop1 := newStateServer(t, dir, server.Config{})
	cid, err := client1.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the campaign is actually executing (its first cell is
	// parked on the gate), so Close interrupts a mid-flight run rather
	// than a queued one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := client1.Campaign(ctx, cid)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// Close is the checkpoint-and-stop drain; it blocks on the gated
	// cell, so release the gate once the stop signal is in flight.
	closed := make(chan struct{})
	go func() {
		srv1.Close()
		close(closed)
	}()
	time.Sleep(50 * time.Millisecond)
	release()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("checkpoint-and-stop drain hung")
	}
	if q := srv1.QueuedInstances(); q != 0 {
		t.Fatalf("drain handoff left %d instances reserved", q)
	}
	stop1()

	// The next boot resumes the interrupted run to completion.
	_, client2, stop2 := newStateServer(t, dir, server.Config{})
	resumed, err := client2.WaitCampaign(ctx, cid)
	if err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}
	if resumed.Report == nil {
		t.Fatal("resumed campaign has no report")
	}
	stop2()

	// An uninterrupted run of the same spec, on a fresh server with no
	// state at all, must produce the same report bytes.
	_, freshClient := newTestServer(t, server.Config{Shards: 2, Workers: 1})
	fid, err := freshClient.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshClient.WaitCampaign(ctx, fid)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fresh.Report)
	got, _ := json.Marshal(resumed.Report)
	if string(want) != string(got) {
		t.Errorf("resumed report differs from uninterrupted run:\nuninterrupted %s\nresumed       %s", want, got)
	}
}

// writeAdmittedJob lays out a state dir holding one "admitted" job
// record with the given submit body, plus seq counters ending at its ID:
// what a process that died between admission and completion leaves.
func writeAdmittedJob(t *testing.T, dir, id, tenant, submit string) {
	t.Helper()
	for _, d := range []string{"jobs", "campaigns", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	rec := fmt.Sprintf(`{
  "version": 1,
  "id": %q,
  "created": "2026-08-08T12:00:00Z",
  "tenant": %q,
  "submit": %s,
  "status": "admitted"
}`, id, tenant, submit)
	if err := os.WriteFile(filepath.Join(dir, "jobs", id+".json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	seqs := fmt.Sprintf(`{"version": 1, "jobSeq": %d, "campaignSeq": 0}`, idNum(t, id))
	if err := os.WriteFile(filepath.Join(dir, "seqs.json"), []byte(seqs), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStateInterruptedJobRerunsAtBoot simulates a crash: a state dir
// holding an "admitted" job record (what a process that died between
// admission and completion leaves behind) plus its seq counters. Boot
// must re-run the job to completion at its original ID and continue the
// ID sequence past it.
func TestStateInterruptedJobRerunsAtBoot(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	writeAdmittedJob(t, dir, "j-000005", "crashed", `{"jobs":[{"n":2,"instances":10,"seed":9}]}`)

	srv, client, _ := newStateServer(t, dir, server.Config{})
	st, err := client.WaitJob(ctx, "j-000005")
	if err != nil {
		t.Fatalf("interrupted job never re-ran: %v", err)
	}
	if st.Status != leanconsensus.JobDone || st.Tenant != "crashed" {
		t.Fatalf("re-run finished as %+v, want done under tenant crashed", st)
	}
	var decided int64
	for _, ss := range st.Specs {
		if ss.Result != nil {
			decided += ss.Result.Decided0 + ss.Result.Decided1
		}
	}
	if decided != 10 {
		t.Errorf("re-run decided %d of 10 instances", decided)
	}
	if q := srv.QueuedInstances(); q != 0 {
		t.Errorf("re-run left %d instances reserved", q)
	}
	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != "j-000006" {
		t.Errorf("next ID after restored seq 5 = %s, want j-000006", id)
	}
	if _, err := client.WaitJob(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// TestStateInterruptedJobRerunsUnderNewShards is the restart half of the
// -shards regression: an "admitted" job record re-run at boot under a
// different pool shape serves exactly the result an uninterrupted run of
// the same spec serves at Shards 1.
func TestStateInterruptedJobRerunsUnderNewShards(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	submit, err := json.Marshal(map[string]any{"jobs": shardsSpecs})
	if err != nil {
		t.Fatal(err)
	}
	writeAdmittedJob(t, dir, "j-000001", "", string(submit))

	_, client, _ := newStateServer(t, dir, server.Config{Shards: 3, Workers: 2})
	st, err := client.WaitJob(ctx, "j-000001")
	if err != nil {
		t.Fatalf("interrupted job never re-ran: %v", err)
	}
	rerun := deterministicResults(t, st)
	want := runSpecs(t, server.Config{Shards: 1, Workers: 1}, shardsSpecs...)
	for i := range want {
		if rerun[i] != want[i] {
			t.Fatalf("spec %d re-run at boot under 3×2 differs from an uninterrupted 1×1 run:\n%+v\n%+v", i, rerun[i], want[i])
		}
	}
}

// TestStateAdmissionRollbackRemovesRecord: when the seqs write fails
// after the admission record was already written, the 500's rollback
// must undo the record too — an orphaned "admitted" file would re-run
// at the next boot as work the client was told was never admitted.
func TestStateAdmissionRollbackRemovesRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, client, _ := newStateServer(t, dir, server.Config{})

	// A directory where seqs.json belongs fails the atomic write's
	// rename, after the job/campaign record was written successfully.
	if err := os.Mkdir(filepath.Join(dir, "seqs.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	var ae *leanconsensus.APIError
	_, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 1})
	if !errors.As(err, &ae) || ae.StatusCode != 500 {
		t.Fatalf("job submit with a failing seqs write: %v, want 500", err)
	}
	_, err = client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 1})
	if !errors.As(err, &ae) || ae.StatusCode != 500 {
		t.Fatalf("campaign submit with a failing seqs write: %v, want 500", err)
	}
	for _, sub := range []string{"jobs", "campaigns"} {
		recs, err := filepath.Glob(filepath.Join(dir, sub, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("rolled-back admission left %s records on disk: %v", sub, recs)
		}
	}
	if q := srv.QueuedInstances(); q != 0 {
		t.Errorf("rolled-back admissions left %d instances reserved", q)
	}

	// With the fault cleared, the rolled-back sequence numbers are
	// re-minted from scratch: the failed admissions never happened.
	if err := os.Remove(filepath.Join(dir, "seqs.json")); err != nil {
		t.Fatal(err)
	}
	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != "j-000001" {
		t.Errorf("first successful admission minted %s, want j-000001", id)
	}
	if _, err := client.WaitJob(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// TestStateEvictionForgetsRecords: once the table bound evicts a
// finished job, a restart must not resurrect it — the record is deleted
// with the entry.
func TestStateEvictionForgetsRecords(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, client, stop := newStateServer(t, dir, server.Config{MaxJobsKept: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 2, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop()

	recs, err := filepath.Glob(filepath.Join(dir, "jobs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 2 {
		t.Fatalf("eviction left %d records for a table bound of 2: %v", len(recs), recs)
	}

	_, client2, _ := newStateServer(t, dir, server.Config{MaxJobsKept: 2})
	if _, err := client2.Job(ctx, ids[0]); err == nil {
		t.Errorf("evicted job %s resurrected after restart", ids[0])
	}
	if _, err := client2.Job(ctx, ids[len(ids)-1]); err != nil {
		t.Errorf("retained job %s lost after restart: %v", ids[len(ids)-1], err)
	}
}
