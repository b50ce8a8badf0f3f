package server_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/server"
)

// waitStatus polls get until it reports want.
func waitStatus(t *testing.T, want string, get func() (string, error)) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got, err := get()
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("status %q, never %q", got, want)
		}
	}
}

// TestStreamEndsWithoutDoneOnHandoff: work handed to the successor
// process at a checkpoint-and-stop drain has not finished, so its
// progress stream must end without a "done" event, and the client
// reports the stream cut short instead of returning the "queued" status
// as final. The job waits behind the only slot; the campaign is
// interrupted mid-run.
func TestStreamEndsWithoutDoneOnHandoff(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		kind string
		// start submits the unit to hand off, returning its ID once the
		// server is busy with it or ahead of it.
		start  func(t *testing.T, c *leanconsensus.Client) string
		stream func(c *leanconsensus.Client, id string, attached func()) (status string, err error)
	}{{
		kind: "job",
		start: func(t *testing.T, c *leanconsensus.Client) string {
			first, err := c.SubmitJobs(ctx, leanconsensus.JobSpec{Model: "slowtest", N: 2, Instances: 1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, "running", func() (string, error) {
				st, err := c.Job(ctx, first)
				if err != nil {
					return "", err
				}
				return st.Status, nil
			})
			id, err := c.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			return id
		},
		stream: func(c *leanconsensus.Client, id string, attached func()) (string, error) {
			st, err := c.StreamJob(ctx, id, func(leanconsensus.JobStatus) { attached() })
			if st == nil {
				return "", err
			}
			return st.Status, err
		},
	}, {
		kind: "campaign",
		start: func(t *testing.T, c *leanconsensus.Client) string {
			id, err := c.SubmitCampaign(ctx, leanconsensus.CampaignSpec{
				Name: "handoff", Models: []string{"slowtest"}, Ns: []int{2}, Seeds: []uint64{1, 2, 3}, Reps: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, "running", func() (string, error) {
				st, err := c.Campaign(ctx, id)
				if err != nil {
					return "", err
				}
				return st.Status, nil
			})
			return id
		},
		stream: func(c *leanconsensus.Client, id string, attached func()) (string, error) {
			st, err := c.StreamCampaign(ctx, id, func(leanconsensus.CampaignStatus) { attached() })
			if st == nil {
				return "", err
			}
			return st.Status, err
		},
	}} {
		t.Run(tc.kind, func(t *testing.T) {
			release := gateSlowModel(t)
			srv, client, _ := newStateServer(t, t.TempDir(), server.Config{MaxConcurrentJobs: 1})
			id := tc.start(t, client)

			type result struct {
				status string
				err    error
			}
			var once sync.Once
			attached := make(chan struct{})
			got := make(chan result, 1)
			go func() {
				status, err := tc.stream(client, id, func() { once.Do(func() { close(attached) }) })
				got <- result{status, err}
			}()
			select {
			case <-attached:
			case <-time.After(10 * time.Second):
				t.Fatal("stream never delivered a progress event")
			}

			// Close is the checkpoint-and-stop drain; it waits on the gated
			// run, so release the gate once the stop signal is in flight.
			closed := make(chan struct{})
			go func() {
				srv.Close()
				close(closed)
			}()
			time.Sleep(50 * time.Millisecond)
			release()
			select {
			case <-closed:
			case <-time.After(30 * time.Second):
				t.Fatal("checkpoint-and-stop drain hung")
			}
			select {
			case r := <-got:
				if r.err == nil || !strings.Contains(r.err.Error(), "without a done event") {
					t.Fatalf("stream of handed-off %s %s returned status %q, error %v; want it cut short",
						tc.kind, id, r.status, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("stream of handed-off work never ended")
			}
		})
	}
}

// TestCampaignFailedPath drives a campaign to "failed" — its checkpoint
// path is a directory, so the run cannot read it — and pins every place
// the failure shows: the status and the client's error, the failed
// counter, the campaign.done detail, the state log, the returned
// reservation, and the body a restart serves.
func TestCampaignFailedPath(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints", "c-000001.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, client, stop := newStateServer(t, dir, server.Config{})
	id, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Name: "fails", Ns: []int{2}, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if id != "c-000001" {
		t.Fatalf("first campaign minted %s", id)
	}
	// The stream's "done" follows the terminal commit.
	st, err := client.StreamCampaign(ctx, id, nil)
	if err == nil {
		t.Fatal("StreamCampaign returned no error for a failed campaign")
	}
	if st.Status != "failed" || !strings.Contains(st.Error, "campaign: read checkpoint:") ||
		!strings.Contains(st.Error, "is a directory") {
		t.Fatalf("status %q, error %q; want failed on the unreadable checkpoint", st.Status, st.Error)
	}
	if _, err := client.WaitCampaign(ctx, id); err == nil {
		t.Error("WaitCampaign returned no error for a failed campaign")
	}

	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, `leanconsensus_campaigns_total{event="failed"}`); v != 1 {
		t.Errorf("campaigns failed counter = %v, want 1", v)
	}
	if v := metricValue(t, text, "leanconsensus_queued_instances"); v != 0 {
		t.Errorf("queued_instances = %v after the failure, want 0", v)
	}
	page, err := client.QueryEvents(ctx, leanconsensus.EventQuery{Kind: "campaign.done", ID: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Labels.Detail != st.Error {
		t.Errorf("campaign.done events %+v, want one with detail %q", page.Events, st.Error)
	}
	if got := foldStateLog(t, dir)[id]; got != "failed" {
		t.Errorf("state log folds %s to %q, want failed", id, got)
	}
	before := getBody(t, client, "/v1/campaigns/"+id)
	stop()

	_, client2, _ := newStateServer(t, dir, server.Config{})
	if after := getBody(t, client2, "/v1/campaigns/"+id); !bytes.Equal(before, after) {
		t.Errorf("restart serves a different body:\nbefore %s\nafter  %s", before, after)
	}
}

// TestLifecycleMetrics pins all ten lifecycle series by name: per kind,
// one unit that is accepted and completes and one rejected with a 400.
func TestLifecycleMetrics(t *testing.T) {
	_, client := newTestServer(t, server.Config{})
	ctx := context.Background()
	var apiErr *leanconsensus.APIError

	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamJob(ctx, id, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Model: "nope", N: 2, Instances: 5}); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("bad job spec: %v, want a 400", err)
	}
	cid, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamCampaign(ctx, cid, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Dists: []string{"nope"}, Ns: []int{2}, Reps: 2}); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("bad campaign spec: %v, want a 400", err)
	}

	// The running gauges drop as the runners return, just after the
	// "done" events.
	var text string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if text, err = client.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		running := metricValue(t, text, "leanconsensus_jobs_running") + metricValue(t, text, "leanconsensus_campaigns_running")
		if running == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, family := range []string{"jobs", "campaigns"} {
		for event, want := range map[string]float64{"accepted": 1, "rejected": 1, "completed": 1, "failed": 0} {
			sample := "leanconsensus_" + family + `_total{event="` + event + `"}`
			if got := metricValue(t, text, sample); got != want {
				t.Errorf("%s = %v, want %v", sample, got, want)
			}
		}
		if got := metricValue(t, text, "leanconsensus_"+family+"_running"); got != 0 {
			t.Errorf("leanconsensus_%s_running = %v after both finished, want 0", family, got)
		}
	}
}

// TestStateTwoCommitsPerUnit: with durable state armed, a job and a
// campaign each cost exactly two state-log commits of one record each —
// the admit frame before the 202, the terminal frame before the "done"
// event.
func TestStateTwoCommitsPerUnit(t *testing.T) {
	_, client, _ := newStateServer(t, t.TempDir(), server.Config{})
	ctx := context.Background()
	counts := func() (commits, records float64) {
		text, err := client.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return metricValue(t, text, "leanconsensus_state_commits_total"), metricValue(t, text, "leanconsensus_state_records_total")
	}
	for _, kind := range []string{"job", "campaign"} {
		commits0, records0 := counts()
		if kind == "job" {
			id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 5, Seed: 1})
			if err == nil {
				_, err = client.StreamJob(ctx, id, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		} else {
			id, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 2})
			if err == nil {
				_, err = client.StreamCampaign(ctx, id, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		commits, records := counts()
		if commits-commits0 != 2 || records-records0 != 2 {
			t.Errorf("one %s: +%v commits, +%v records; want +2, +2", kind, commits-commits0, records-records0)
		}
	}
}
