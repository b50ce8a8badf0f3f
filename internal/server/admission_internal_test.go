package server

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source for the EWMA and TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }

// TestRateEWMATracksCompletionRate: the estimate seeds from the first
// observation, folds each windowed sample at the configured weight, and
// ignores samples shorter than the window so rejection bursts cannot
// alias counter noise into rate noise.
func TestRateEWMATracksCompletionRate(t *testing.T) {
	clk := newFakeClock()
	e := rateEWMA{now: clk.now, rate: initialRate}

	// First observation only seeds the baseline; the estimate is still
	// the initial rate.
	if got := e.observe(0); got != initialRate {
		t.Fatalf("pre-measurement estimate = %v, want the %v seed", got, float64(initialRate))
	}
	// 100k completions over 1s: one EWMA fold toward the sample.
	clk.advance(time.Second)
	want := rateAlpha*100_000 + (1-rateAlpha)*initialRate
	if got := e.observe(100_000); got != want {
		t.Fatalf("after 100k/s sample: %v, want %v", got, want)
	}
	// A sub-window re-read must not move the estimate.
	clk.advance(rateWindow / 2)
	if got := e.observe(200_000); got != want {
		t.Fatalf("sub-window sample moved the estimate: %v, want %v", got, want)
	}
	// Repeated samples converge on the true rate.
	for i := 0; i < 50; i++ {
		clk.advance(time.Second)
		e.observe(100_000 + int64(i+1)*100_000)
	}
	if got := e.observe(0); got < 95_000 || got > 105_000 {
		t.Fatalf("estimate did not converge to 100k/s: %v", got)
	}
}

// TestRetryAfterBounds pins the hint's clamps: the floor keeps a cold
// estimate from promising a week, the 60s cap keeps a huge backlog from
// telling clients to go away for an hour.
func TestRetryAfterBounds(t *testing.T) {
	newSrv := func(rate float64) *Server {
		clk := newFakeClock()
		s := &Server{}
		s.rate.now = clk.now
		s.rate.rate = rate
		// Seed last so observe reuses the injected rate (dt < window).
		s.rate.last = clk.t
		return s
	}
	if got := newSrv(1).retryAfter(5_000); got != 2 {
		t.Errorf("floored hint = %d, want 5000/5000+1 = 2", got)
	}
	if got := newSrv(initialRate).retryAfter(100_000); got != 3 {
		t.Errorf("hint at the seed rate = %d, want 100000/50000+1 = 3", got)
	}
	if got := newSrv(rateFloor).retryAfter(1 << 40); got != 60 {
		t.Errorf("huge-backlog hint = %d, want the 60s cap", got)
	}
	if got := newSrv(1e12).retryAfter(1 << 30); got != (1<<30)/rateCap+1 {
		t.Errorf("capped-rate hint = %d, want %d", got, (1<<30)/rateCap+1)
	}
}

// TestGCPauseCacheRefreshesOnTTL: the /healthz GC vital is served from
// the cache inside the TTL (one stop-the-world read, not one per poll)
// and refreshed after it.
func TestGCPauseCacheRefreshesOnTTL(t *testing.T) {
	clk := newFakeClock()
	reads := 0
	s := &Server{gcNow: clk.now, gcRead: func() float64 {
		reads++
		return float64(reads)
	}}
	if got := s.cachedGCPauseP99Ms(); got != 1 {
		t.Fatalf("first read = %v, want 1", got)
	}
	clk.advance(gcPauseTTL - time.Millisecond)
	if got := s.cachedGCPauseP99Ms(); got != 1 {
		t.Fatalf("read inside the TTL = %v, want the cached 1", got)
	}
	if reads != 1 {
		t.Fatalf("ReadMemStats proxy ran %d times inside the TTL, want 1", reads)
	}
	clk.advance(2 * time.Millisecond)
	if got := s.cachedGCPauseP99Ms(); got != 2 {
		t.Fatalf("read past the TTL = %v, want the refreshed 2", got)
	}
}

// evictServer is a bare server with table bound max, for driving
// evictLocked directly.
func evictServer(max int) *Server {
	return &Server{cfg: Config{MaxJobsKept: max}, units: map[string]*unit{}}
}

// addUnit appends a unit of kind k to s's table without evicting.
func addUnit(s *Server, k *kind, id string, finished bool) *unit {
	u := &unit{id: id, kind: k}
	if finished {
		u.state.Store(int32(stateDone))
	}
	s.units[id] = u
	s.order = append(s.order, u)
	k.kept++
	return u
}

// TestEvictFinishedChurn drives eviction through the access pattern
// that used to be O(n²): a long prefix of live jobs ahead of a churning
// tail of finished ones. The skip frontier must keep each call's scan
// short, live entries must survive every round, and finished entries
// must leave oldest-first. Finished campaigns interleave with the jobs
// in the one table, and MaxJobsKept bounds each kind on its own: while
// the campaigns are under it, none is evicted.
func TestEvictFinishedChurn(t *testing.T) {
	const livePrefix = 512
	const max = livePrefix + 8
	s := evictServer(max)
	jobs, camps := &s.jobKind, &s.campKind
	for i := 0; i < livePrefix; i++ {
		addUnit(s, jobs, fmt.Sprintf("j-%06d", i+1), false)
	}

	// Churn: rounds of finished arrivals, evicting after each insert the
	// way the submit path does.
	var finished, evicted []string
	for round := 0; round < 200; round++ {
		addUnit(s, camps, fmt.Sprintf("c-%06d", round+1), true)
		id := fmt.Sprintf("j-%06d", livePrefix+round+1)
		addUnit(s, jobs, id, true)
		finished = append(finished, id)
		s.evictLocked(jobs)
		if jobs.kept > max {
			t.Fatalf("round %d: %d jobs kept, bound %d", round, jobs.kept, max)
		}
		for _, f := range finished {
			if s.units[f] == nil && !slices.Contains(evicted, f) {
				evicted = append(evicted, f)
			}
		}
	}
	for i := 0; i < livePrefix; i++ {
		key := fmt.Sprintf("j-%06d", i+1)
		if s.units[key] == nil {
			t.Fatalf("live prefix entry %s evicted", key)
		}
	}
	if camps.kept != 200 || len(s.units) != jobs.kept+camps.kept || len(s.order) != len(s.units) {
		t.Fatalf("table %d units (order %d), kept %d jobs + %d campaigns; want all 200 campaigns",
			len(s.units), len(s.order), jobs.kept, camps.kept)
	}
	// Finished entries left oldest-first.
	if len(evicted) == 0 {
		t.Fatal("nothing evicted")
	}
	for i := 1; i < len(evicted); i++ {
		if evicted[i] <= evicted[i-1] {
			t.Fatalf("eviction out of order: %s after %s", evicted[i], evicted[i-1])
		}
	}
	// The frontier skips the live prefix: a scan after warm-up must not
	// restart from the front. (Behavioral proxy: the skip index sits past
	// the live prefix once the pattern stabilizes.)
	if jobs.skip < livePrefix-1 {
		t.Errorf("skip frontier = %d, want at or past the %d-entry live prefix", jobs.skip, livePrefix)
	}

	// All-live tables are left alone rather than spun on.
	s2 := evictServer(1)
	addUnit(s2, &s2.jobKind, "a", false)
	addUnit(s2, &s2.jobKind, "b", false)
	s2.evictLocked(&s2.jobKind)
	if len(s2.units) != 2 || len(s2.order) != 2 {
		t.Errorf("all-live table was evicted: %d left", len(s2.units))
	}
}

// TestEvictFinishedPrefixRescan: an entry skipped while live but
// finished since must still be found — the frontier resets and rescans
// the prefix exactly once before giving up.
func TestEvictFinishedPrefixRescan(t *testing.T) {
	s := evictServer(2)
	k := &s.jobKind
	a := addUnit(s, k, "a", false)
	addUnit(s, k, "b", false)
	addUnit(s, k, "c", true)

	// First eviction takes c and parks the frontier past the live a, b.
	s.evictLocked(k)
	if s.units["c"] != nil || len(s.order) != 2 {
		t.Fatalf("first eviction left %d entries, skip %d", len(s.order), k.skip)
	}

	// a finishes behind the frontier; a new live d pushes past the bound.
	a.state.Store(int32(stateDone))
	addUnit(s, k, "d", false)
	s.evictLocked(k)
	if s.units["a"] != nil {
		t.Fatal("prefix rescan missed the finished head entry")
	}
	if s.units["b"] == nil || s.units["d"] == nil {
		t.Fatal("rescan evicted a live entry")
	}
}

// TestEvictFrontierAcrossKinds: evicting a campaign ahead of the job
// frontier shifts the one order slice, and the frontier must shift with
// it, or the next job eviction skips the oldest finished job.
func TestEvictFrontierAcrossKinds(t *testing.T) {
	s := evictServer(2)
	jobs, camps := &s.jobKind, &s.campKind
	addUnit(s, camps, "c1", true)
	addUnit(s, jobs, "j1", false)
	addUnit(s, jobs, "j2", true)
	addUnit(s, jobs, "j3", true)
	s.evictLocked(jobs) // takes j2; the job frontier parks at j3
	addUnit(s, jobs, "j4", true)
	addUnit(s, camps, "c2", true)
	addUnit(s, camps, "c3", true)
	s.evictLocked(camps) // takes c1, ahead of the job frontier
	s.evictLocked(jobs)
	for id, want := range map[string]bool{"c1": false, "c2": true, "c3": true, "j1": true, "j2": false, "j3": false, "j4": true} {
		if got := s.units[id] != nil; got != want {
			t.Errorf("%s kept = %v, want %v", id, got, want)
		}
	}
}
