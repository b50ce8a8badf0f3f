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
	s := &Server{state: st, units: map[string]*unit{}}
	s.campKind.checkpoints = true
	st.snapshot = s.snapshotState
	t.Cleanup(func() { st.close() })

	for _, tc := range []struct {
		id string
		k  *kind
		wk work
	}{
		{"j-000001", &s.jobKind, &job{}},
		{"c-000001", &s.campKind, &campaignRun{camp: &campaign.Campaign{}}},
	} {
		u := tc.wk.base()
		u.id, u.kind, u.work, u.created, u.done = tc.id, tc.k, tc.wk, time.Now(), make(chan struct{})
		u.state.Store(int32(stateDone))
		// Evicted (not in the table): the save must be a no-op.
		s.saveTerminal(u)
		if got, ok := foldStatus(t, dir)[u.id]; ok {
			t.Fatalf("terminal save logged evicted %s (folded status %q)", u.id, got)
		}
		// Live: the save lands.
		s.units[u.id] = u
		s.saveTerminal(u)
		if got := foldStatus(t, dir)[u.id]; got != recDone {
			t.Fatalf("terminal save of live %s folded to %q, want %q", u.id, got, recDone)
		}
	}
}
