package server

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"leanconsensus/internal/campaign"
	"leanconsensus/internal/metrics"
)

// foldStatus folds the state log under dir into each live ID's last
// record status.
func foldStatus(t *testing.T, dir string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, stateLogName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fold, err := (&stateLog{index: map[string]int64{}}).fold(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(fold.recs))
	for id, rec := range fold.recs {
		out[id] = rec.Status
	}
	return out
}

// TestTerminalSaveSkipsEvictedEntries pins the ordering between
// eviction and terminal persistence: a runner persisting a terminal
// record races evictLocked, which may already have deleted the table
// entry and appended its evict frame. The guarded save must notice the
// entry is gone and append nothing — a terminal frame after the evict
// would resurrect the evicted ID at the next boot, with disk and the
// in-memory table disagreeing.
func TestTerminalSaveSkipsEvictedEntries(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStateLog(dir, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		state:     st,
		jobs:      map[string]*job{},
		campaigns: map[string]*campaignRun{},
	}
	st.snapshot = s.snapshotState
	t.Cleanup(func() { st.close() })

	j := &job{id: "j-000001", created: time.Now(), done: make(chan struct{})}
	j.state.Store(int32(stateDone))
	// Evicted (not in the table): the save must be a no-op.
	s.saveJobTerminal(j)
	if got, ok := foldStatus(t, dir)[j.id]; ok {
		t.Fatalf("terminal save logged an evicted job (folded status %q)", got)
	}
	// Live: the save lands.
	s.jobs[j.id] = j
	s.saveJobTerminal(j)
	if got := foldStatus(t, dir)[j.id]; got != recDone {
		t.Fatalf("terminal save of a live job folded to %q, want %q", got, recDone)
	}

	cr := &campaignRun{id: "c-000001", created: time.Now(), camp: &campaign.Campaign{}, done: make(chan struct{})}
	cr.state.Store(int32(stateDone))
	s.saveCampaignTerminal(cr)
	if got, ok := foldStatus(t, dir)[cr.id]; ok {
		t.Fatalf("terminal save logged an evicted campaign (folded status %q)", got)
	}
	s.campaigns[cr.id] = cr
	s.saveCampaignTerminal(cr)
	if got := foldStatus(t, dir)[cr.id]; got != recDone {
		t.Fatalf("terminal save of a live campaign folded to %q, want %q", got, recDone)
	}
}
