package arena_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/metrics"
)

func TestMetricsMatchStats(t *testing.T) {
	reg := metrics.NewRegistry()
	m := arena.NewMetrics(reg, "model", "sched", "dist", "exponential")
	a, results := runBatch(t, arena.Config{Shards: 4, Workers: 2, Seed: 3, Metrics: m}, 500)
	defer a.Close()

	st := a.Stats()
	if got := m.Decided[0].Value(); got != st.Totals.Decided[0] {
		t.Errorf("decisions{value=0} counter = %d, stats say %d", got, st.Totals.Decided[0])
	}
	if got := m.Decided[1].Value(); got != st.Totals.Decided[1] {
		t.Errorf("decisions{value=1} counter = %d, stats say %d", got, st.Totals.Decided[1])
	}
	if got := m.Errors.Value(); got != st.Totals.Errors {
		t.Errorf("errors counter = %d, stats say %d", got, st.Totals.Errors)
	}
	if got := m.Rounds.Value(); got != st.Totals.RoundSum {
		t.Errorf("rounds counter = %d, stats say %d", got, st.Totals.RoundSum)
	}
	if got := m.Ops.Value(); got != st.Totals.Ops {
		t.Errorf("ops counter = %d, stats say %d", got, st.Totals.Ops)
	}
	if got := m.Latency.Count(); got != int64(len(results)) {
		t.Errorf("latency histogram holds %d observations, want %d", got, len(results))
	}
	if got := m.Queued.Value(); got != 0 {
		t.Errorf("queued gauge = %d after drain, want 0", got)
	}
}

func TestQueueIntrospection(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 2, Workers: 1, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth on idle arena = %d, want 0", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth after Close = %d, want 0", got)
	}
}

// TestCloseSubmitStorm is the regression test for the serving layer's
// drain path: Close must be idempotent under concurrent callers, and
// every Submit racing it must either be admitted (and then served) or
// rejected with ErrClosed — never a panic on a closed channel, never a
// dropped result.
func TestCloseSubmitStorm(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 2, Workers: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 8
	var admitted atomic.Int64
	var wg sync.WaitGroup
	var chans [submitters]chan (<-chan arena.Result)
	for g := 0; g < submitters; g++ {
		// Generously buffered so a submitter can never block on its own
		// bookkeeping channel while Close is still racing the storm.
		chans[g] = make(chan (<-chan arena.Result), 1<<15)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer close(chans[g])
			for i := 0; ; i++ {
				done, err := a.Submit(fmt.Sprintf("storm-%d-%d", g, i), i%2)
				if err != nil {
					if !errors.Is(err, arena.ErrClosed) {
						t.Errorf("Submit returned %v, want ErrClosed", err)
					}
					return
				}
				admitted.Add(1)
				chans[g] <- done
			}
		}(g)
	}
	// Close concurrently from several goroutines while submissions are in
	// full flight.
	var closers sync.WaitGroup
	for c := 0; c < 3; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := a.Close(); err != nil {
				t.Errorf("Close returned %v", err)
			}
		}()
	}
	closers.Wait()
	wg.Wait()

	// Every admitted submission must have been served: Close drains.
	var delivered int64
	for g := 0; g < submitters; g++ {
		for done := range chans[g] {
			res, ok := <-done
			if !ok {
				t.Fatal("result channel closed without a result")
			}
			if res.Err != nil {
				t.Fatalf("admitted instance failed: %v", res.Err)
			}
			delivered++
		}
	}
	if delivered != admitted.Load() {
		t.Fatalf("admitted %d but delivered %d", admitted.Load(), delivered)
	}
	if st := a.Stats(); st.Totals.Proposals != admitted.Load() {
		t.Fatalf("stats saw %d proposals, want %d", st.Totals.Proposals, admitted.Load())
	}
}
