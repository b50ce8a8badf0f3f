package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/server"
)

// getBody fetches path from the client's server and returns the raw
// response body.
func getBody(t *testing.T, c *leanconsensus.Client, path string) []byte {
	t.Helper()
	resp, err := http.Get(c.BaseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return b
}

// finishJob waits for job id's job.done event, which the runner
// journals only once the terminal frame's commit has resolved; a done
// status can be served before that.
func finishJob(t *testing.T, c *leanconsensus.Client, id string) {
	t.Helper()
	ctx := context.Background()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		page, err := c.QueryEvents(ctx, leanconsensus.EventQuery{Kind: "job.done", ID: id})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Events) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never journaled job.done", id)
		}
	}
}

// runJobs submits and finishes count small jobs, returning their IDs.
func runJobs(t *testing.T, c *leanconsensus.Client, count int) []string {
	t.Helper()
	ctx := context.Background()
	var ids []string
	for i := range count {
		id, err := c.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 3, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestStateLogTornTailRecovery: a state log whose tail was cut mid-frame,
// zero-filled, or corrupted in its final frame boots with every complete
// record served and exactly one journal.truncate event naming the state
// log. A lost terminal frame leaves the job's admit frame, so the job
// re-runs to the same deterministic result.
func TestStateLogTornTailRecovery(t *testing.T) {
	damages := []struct {
		name      string
		lostFinal bool // the damage destroys the final (terminal) frame
		damage    func(t *testing.T, path string, last, size int64)
	}{
		{"cut mid-frame", true, func(t *testing.T, path string, last, size int64) {
			if err := os.Truncate(path, last+(size-last)/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-filled tail", false, func(t *testing.T, path string, last, size int64) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(make([]byte, 4096)); err != nil {
				t.Fatal(err)
			}
		}},
		{"CRC-bad final frame", true, func(t *testing.T, path string, last, size int64) {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			b := make([]byte, 1)
			off := last + (size-last)/2
			if _, err := f.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x01
			if _, err := f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			_, client, stop := newStateServer(t, dir, server.Config{})
			ids := runJobs(t, client, 3)
			before := map[string][]byte{}
			for _, id := range ids {
				before[id] = getBody(t, client, "/v1/jobs/"+id)
			}
			stop()

			recs := readStateLog(t, dir)
			st, err := os.Stat(stateLogPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			d.damage(t, stateLogPath(dir), recs[len(recs)-1].at, st.Size())

			_, client2, _ := newStateServer(t, dir, server.Config{})
			page, err := client2.QueryEvents(ctx, leanconsensus.EventQuery{Kind: "journal.truncate"})
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Events) != 1 || page.Events[0].Labels.Detail != "state.log" || page.Events[0].Labels.Count <= 0 {
				t.Fatalf("journal.truncate events %+v, want exactly one naming state.log", page.Events)
			}
			last := ids[len(ids)-1]
			for _, id := range ids {
				if id == last && d.lostFinal {
					continue
				}
				if got := getBody(t, client2, "/v1/jobs/"+id); !bytes.Equal(got, before[id]) {
					t.Errorf("job %s after recovery:\n%s\nwant\n%s", id, got, before[id])
				}
			}
			if d.lostFinal {
				st, err := client2.WaitJob(ctx, last)
				if err != nil {
					t.Fatalf("job %s with a lost terminal frame: %v", last, err)
				}
				var was leanconsensus.JobStatus
				if err := json.Unmarshal(before[last], &was); err != nil {
					t.Fatal(err)
				}
				got, want := deterministicResults(t, st), deterministicResults(t, &was)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("re-run of %s spec %d: %+v, want %+v", last, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestStateRejectsPreLogLayout: a state dir in the per-record-file
// layout of earlier versions fails boot with an error that names it,
// rather than being silently ignored.
func TestStateRejectsPreLogLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seqs.json"), []byte(`{"version":1,"jobSeq":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := server.New(server.Config{StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "pre-log") {
		t.Fatalf("boot on a pre-log state dir: %v, want an error naming %s", err, dir)
	}
}

// TestStateFailedCommitCarriesFinishedWork: when the commit holding a
// finished job's terminal frame fails, the rewrite from the table
// carries the job, the file whose fsync failed is never synced again,
// and the job serves the same body after a restart.
func TestStateFailedCommitCarriesFinishedWork(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, client, stop := newStateServer(t, dir, server.Config{})
	faults := &failSyncs{}
	server.SetStateSync(srv, faults.sync)

	// The first fsync commits the admission, the second the terminal
	// frame: fail the second.
	faults.arm(1, 1)
	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	finishJob(t, client, id)
	before := getBody(t, client, "/v1/jobs/"+id)
	if n := faults.failures(); n != 1 {
		t.Fatalf("%d fsyncs failed, want the terminal commit's", n)
	}
	if live := foldStateLog(t, dir); live[id] != "done" {
		t.Fatalf("rewritten log folds %s to %q, want done", id, live[id])
	}
	next, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 1})
	if err != nil {
		t.Fatalf("admission after a recovered commit failure: %v", err)
	}
	if _, err := client.WaitJob(ctx, next); err != nil {
		t.Fatal(err)
	}
	stop()
	if bad := faults.resyncedFailedFile(); bad != nil {
		t.Errorf("the log fsynced %s again after its fsync failed", bad.Name())
	}

	_, client2, _ := newStateServer(t, dir, server.Config{})
	if got := getBody(t, client2, "/v1/jobs/"+id); !bytes.Equal(got, before) {
		t.Errorf("job %s after restart:\n%s\nwant\n%s", id, got, before)
	}
}

// TestStateFailedRewriteRefusesAdmissions: when the rewrite after a
// failed commit fails too, nothing more can be made durable: every later
// admission answers 503, and a job whose terminal frame was lost stays
// "admitted" on disk and re-runs at the next boot.
func TestStateFailedRewriteRefusesAdmissions(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, client, stop := newStateServer(t, dir, server.Config{})
	faults := &failSyncs{}
	server.SetStateSync(srv, faults.sync)

	// Admission commits; the terminal commit and its rewrite both fail.
	faults.arm(1, 2)
	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	finishJob(t, client, id)
	var ae *leanconsensus.APIError
	if _, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 1}); !errors.As(err, &ae) || ae.StatusCode != 503 {
		t.Fatalf("job submit on a broken state log: %v, want 503", err)
	}
	if _, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 1}); !errors.As(err, &ae) || ae.StatusCode != 503 {
		t.Fatalf("campaign submit on a broken state log: %v, want 503", err)
	}
	if q := srv.QueuedInstances(); q != 0 {
		t.Errorf("refused admissions left %d instances reserved", q)
	}
	stop()
	if live := foldStateLog(t, dir); len(live) != 1 || live[id] != "admitted" {
		t.Fatalf("log after the failed rewrite folds to %v, want only %s admitted", live, id)
	}

	_, client2, _ := newStateServer(t, dir, server.Config{})
	st, err := client2.WaitJob(ctx, id)
	if err != nil || st.Status != leanconsensus.JobDone {
		t.Fatalf("job %s after restart: %+v, %v; want a re-run to done", id, st, err)
	}
	next, err := client2.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 1})
	if err != nil {
		t.Fatalf("admission after restart: %v", err)
	}
	if idNum(t, next) <= idNum(t, id) {
		t.Errorf("restarted server minted %s, at or below %s", next, id)
	}
	if _, err := client2.WaitJob(ctx, next); err != nil {
		t.Fatal(err)
	}
}

// TestStateGroupCommitBatchesAdmissions: concurrent admissions against
// a slow disk share commits. A gated job holds the only execution slot,
// so no terminal commit interleaves, and 32 concurrent admissions must
// finish in fewer than 32 commits; the commit and record counters in
// /metrics agree with the fsyncs the seam saw.
func TestStateGroupCommitBatchesAdmissions(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	release := gateSlowModel(t)
	srv, client, _ := newStateServer(t, dir, server.Config{MaxConcurrentJobs: 1})

	blocker, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Model: "slowtest", N: 2, Instances: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := client.Job(ctx, blocker)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == leanconsensus.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %+v", st)
		}
	}

	var commits atomic.Int64
	server.SetStateSync(srv, func(f *os.File) error {
		commits.Add(1)
		time.Sleep(5 * time.Millisecond)
		return f.Sync()
	})
	const admissions = 32
	ids := make([]string, admissions)
	errs := make([]error, admissions)
	var wg sync.WaitGroup
	for i := range admissions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i], errs[i] = client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: uint64(i + 1)})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := commits.Load(); n >= admissions {
		t.Errorf("%d concurrent admissions took %d commits, want fewer", admissions, n)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Before the seam swap: the blocker's admission, one commit.
	if got, want := metricValue(t, text, "leanconsensus_state_commits_total"), float64(commits.Load()+1); got != want {
		t.Errorf("state_commits_total = %v, want %v", got, want)
	}
	if got := metricValue(t, text, "leanconsensus_state_records_total"); got != admissions+1 {
		t.Errorf("state_records_total = %v, want %d", got, admissions+1)
	}
	if got := metricValue(t, text, "leanconsensus_state_commit_seconds_count"); got != float64(commits.Load()+1) {
		t.Errorf("state_commit_seconds_count = %v, want %d", got, commits.Load()+1)
	}

	release()
	for _, id := range append(ids, blocker) {
		if _, err := client.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStateCompactionRestoresIdenticalBodies drives the log past the
// compaction threshold with eviction churn. After a restart every
// retained ID serves a byte-identical GET body, evicted IDs stay gone,
// and the next IDs are the ones the first process would have minted.
func TestStateCompactionRestoresIdenticalBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("drives more than 4 MiB through the state log")
	}
	dir := t.TempDir()
	ctx := context.Background()
	const kept = 3
	srv, client, stop := newStateServer(t, dir, server.Config{MaxJobsKept: kept})
	server.SetStateSync(srv, func(*os.File) error { return nil }) // disk speed is not under test

	var camps []string
	for i := range kept + 2 {
		id, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Seeds: []uint64{uint64(i + 1)}, Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitCampaign(ctx, id); err != nil {
			t.Fatal(err)
		}
		camps = append(camps, id)
	}
	// A full batch makes each job's frames tens of KiB, so a few hundred
	// jobs cross the 4 MiB floor.
	batch := make([]leanconsensus.JobSpec, server.DefaultMaxBatch)
	var jobs []string
	var peak int64
	for compacted := 0; compacted < 8; {
		for i := range batch {
			batch[i] = leanconsensus.JobSpec{N: 2, Instances: 1, Seed: uint64(len(jobs)*len(batch) + i + 1)}
		}
		id, err := client.SubmitJobs(ctx, batch...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, id)
		st, err := os.Stat(stateLogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() < peak || compacted > 0 {
			compacted++ // a few more jobs past the compaction
		}
		peak = max(peak, st.Size())
		if len(jobs) > 2000 {
			t.Fatalf("no compaction after %d jobs (log peaked at %d bytes)", len(jobs), peak)
		}
	}
	retained := append(append([]string{}, jobs[len(jobs)-kept:]...), camps[len(camps)-kept:]...)
	before := map[string][]byte{}
	for _, id := range retained {
		before[id] = getBody(t, client, statusPath(id))
	}
	stop()

	if recs := readStateLog(t, dir); len(recs) == 0 || recs[0].Status != "counters" {
		t.Fatalf("compacted log does not start with a counters frame: %+v", recs[:min(len(recs), 1)])
	}
	_, client2, _ := newStateServer(t, dir, server.Config{MaxJobsKept: kept})
	for _, id := range retained {
		if got := getBody(t, client2, statusPath(id)); !bytes.Equal(got, before[id]) {
			t.Errorf("%s after compaction and restart:\n%s\nwant\n%s", id, got, before[id])
		}
	}
	if _, err := client2.Job(ctx, jobs[0]); err == nil {
		t.Errorf("evicted job %s resurrected", jobs[0])
	}
	if _, err := client2.Campaign(ctx, camps[0]); err == nil {
		t.Errorf("evicted campaign %s resurrected", camps[0])
	}
	nextJob, err := client2.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := jobs[len(jobs)-1]; idNum(t, nextJob) != idNum(t, want)+1 {
		t.Errorf("next job ID after restart %s, want the one after %s", nextJob, want)
	}
	nextCamp, err := client2.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := camps[len(camps)-1]; idNum(t, nextCamp) != idNum(t, want)+1 {
		t.Errorf("next campaign ID after restart %s, want the one after %s", nextCamp, want)
	}
	if _, err := client2.WaitJob(ctx, nextJob); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.WaitCampaign(ctx, nextCamp); err != nil {
		t.Fatal(err)
	}
}

// statusPath is the GET path of a job or campaign ID.
func statusPath(id string) string {
	if strings.HasPrefix(id, "c-") {
		return "/v1/campaigns/" + id
	}
	return "/v1/jobs/" + id
}
