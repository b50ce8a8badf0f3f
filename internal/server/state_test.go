package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/obslog/store"
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

// stateLogPath is the state log inside a state dir.
func stateLogPath(dir string) string { return filepath.Join(dir, "state.log") }

// writeAdmittedJob lays out a state dir whose log holds one admit frame
// for a job with the given submit body: what a process that died
// between admission and completion leaves.
func writeAdmittedJob(t *testing.T, dir, id, tenant, submit string) {
	t.Helper()
	rec := fmt.Sprintf(`{"id":%q,"status":"admitted","created":"2026-08-08T12:00:00Z","tenant":%q,"submit":%s}`, id, tenant, submit)
	if err := os.WriteFile(stateLogPath(dir), store.AppendFrame(nil, []byte(rec)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stateFrame is the part of a state-log record the tests read, and
// the frame's offset in the log.
type stateFrame struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	at     int64
}

// readStateLog decodes every frame of the state log, failing on a torn
// or corrupt one: every CRC must hold.
func readStateLog(t *testing.T, dir string) []stateFrame {
	t.Helper()
	f, err := os.Open(stateLogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []stateFrame
	fr := store.NewFrameReader(f, 64<<20)
	for {
		rec := stateFrame{at: fr.Offset()}
		payload, err := fr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("state log frame at offset %d: %v", rec.at, err)
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("state log frame at offset %d: %v", rec.at, err)
		}
		out = append(out, rec)
	}
}

// foldStateLog folds the state log the way boot does: the last record
// per ID wins and an evict removes the ID. It returns each live ID's
// status.
func foldStateLog(t *testing.T, dir string) map[string]string {
	t.Helper()
	live := map[string]string{}
	for _, rec := range readStateLog(t, dir) {
		switch rec.Status {
		case "counters":
		case "evicted":
			delete(live, rec.ID)
		default:
			live[rec.ID] = rec.Status
		}
	}
	return live
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

// failSyncs is a state-log fsync seam that fails chosen calls with EIO
// and records every file it syncs, in call order.
type failSyncs struct {
	mu         sync.Mutex
	skip, left int
	files      []*os.File
	failed     []int // indexes into files
}

// arm lets the next skip fsyncs through and fails the n after them.
func (f *failSyncs) arm(skip, n int) {
	f.mu.Lock()
	f.skip, f.left = skip, n
	f.mu.Unlock()
}

func (f *failSyncs) sync(file *os.File) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files = append(f.files, file)
	if f.skip > 0 {
		f.skip--
	} else if f.left > 0 {
		f.left--
		f.failed = append(f.failed, len(f.files)-1)
		return syscall.EIO
	}
	return file.Sync()
}

// failures counts the fsyncs the seam failed.
func (f *failSyncs) failures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.failed)
}

// resyncedFailedFile reports a file the seam synced again after its
// fsync had failed.
func (f *failSyncs) resyncedFailedFile() *os.File {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, i := range f.failed {
		for _, later := range f.files[i+1:] {
			if later == f.files[i] {
				return later
			}
		}
	}
	return nil
}

// TestStateAdmissionRollbackRemovesRecord: an admission whose commit
// fails answers 500 and is rolled back — its reservation returned, its
// frame absent from the log the rewrite leaves — so it never re-runs at
// the next boot as work the client was told was never admitted. The
// failed IDs stay unused, in this process and the next: the fsync runs
// outside the table lock, so a concurrent admission may already hold a
// later ID, and re-minting a failed one is never needed.
func TestStateAdmissionRollbackRemovesRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, client, stop := newStateServer(t, dir, server.Config{})
	faults := &failSyncs{}
	server.SetStateSync(srv, faults.sync)

	ok, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	finishJob(t, client, ok)

	var ae *leanconsensus.APIError
	faults.arm(0, 1)
	_, err = client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 1})
	if !errors.As(err, &ae) || ae.StatusCode != 500 {
		t.Fatalf("job submit with a failing commit: %v, want 500", err)
	}
	faults.arm(0, 1)
	_, err = client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 1})
	if !errors.As(err, &ae) || ae.StatusCode != 500 {
		t.Fatalf("campaign submit with a failing commit: %v, want 500", err)
	}
	if live := foldStateLog(t, dir); len(live) != 1 || live[ok] != "done" {
		t.Errorf("log after the rollbacks folds to %v, want only %s done", live, ok)
	}
	if q := srv.QueuedInstances(); q != 0 {
		t.Errorf("rolled-back admissions left %d instances reserved", q)
	}
	if bad := faults.resyncedFailedFile(); bad != nil {
		t.Errorf("the log fsynced %s again after its fsync failed", bad.Name())
	}

	// The failed admissions minted j-000002 and c-000001; they resolve
	// nowhere, and every later ID is larger, before and after a restart.
	checkUnused := func(c *leanconsensus.Client) {
		t.Helper()
		if _, err := c.Job(ctx, "j-000002"); err == nil {
			t.Error("failed job ID j-000002 resolves")
		}
		if _, err := c.Campaign(ctx, "c-000001"); err == nil {
			t.Error("failed campaign ID c-000001 resolves")
		}
	}
	checkUnused(client)
	stop()

	_, client2, _ := newStateServer(t, dir, server.Config{})
	checkUnused(client2)
	if _, err := client2.Job(ctx, ok); err != nil {
		t.Errorf("admitted job %s lost across the rollback and restart: %v", ok, err)
	}
	next, err := client2.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if next != "j-000003" {
		t.Errorf("restarted server minted %s, want j-000003 past the failed j-000002", next)
	}
	cid, err := client2.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cid != "c-000002" {
		t.Errorf("restarted server minted %s, want c-000002 past the failed c-000001", cid)
	}
	if _, err := client2.WaitJob(ctx, next); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.WaitCampaign(ctx, cid); err != nil {
		t.Fatal(err)
	}
}

// TestStateEvictionForgetsRecords: once the table bound evicts a
// finished job, a restart must not resurrect it — an evict frame
// forgets the record with the entry.
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

	if live := foldStateLog(t, dir); len(live) > 2 {
		t.Fatalf("eviction left %d folded records for a table bound of 2: %v", len(live), live)
	}

	_, client2, _ := newStateServer(t, dir, server.Config{MaxJobsKept: 2})
	if _, err := client2.Job(ctx, ids[0]); err == nil {
		t.Errorf("evicted job %s resurrected after restart", ids[0])
	}
	if _, err := client2.Job(ctx, ids[len(ids)-1]); err != nil {
		t.Errorf("retained job %s lost after restart: %v", ids[len(ids)-1], err)
	}
}
