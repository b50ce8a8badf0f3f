package leanconsensus_test

import (
	"context"
	"fmt"
	"testing"

	"leanconsensus"
)

func TestArenaPublicAPI(t *testing.T) {
	a, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{
		Shards:       4,
		Workers:      2,
		N:            8,
		Distribution: leanconsensus.Uniform(0, 2),
		Seed:         17,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bits := map[string]int{}
	values := map[string]int{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("order-%d", i)
		res, err := a.Propose(ctx, key, i%2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 0 && res.Value != 1 {
			t.Fatalf("key %s decided %d", key, res.Value)
		}
		if res.Shard != a.ShardFor(key) {
			t.Fatalf("key %s served by shard %d, routed to %d", key, res.Shard, a.ShardFor(key))
		}
		bits[key] = i % 2
		values[key] = res.Value
	}
	// Re-proposing a key with the same bit replays the same instance and
	// must agree with the first decision.
	for key, want := range values {
		res, err := a.Propose(ctx, key, bits[key])
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("key %s replayed to %d, first decided %d", key, res.Value, want)
		}
	}
	st := a.Stats()
	if st.Proposals == 0 || st.Decided0+st.Decided1 != st.Proposals || st.Errors != 0 {
		t.Errorf("stats inconsistent: %s", st)
	}
	if st.Throughput <= 0 {
		t.Errorf("throughput %v not positive", st.Throughput)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Propose(ctx, "late", 0); err == nil {
		t.Error("Propose after Close succeeded")
	}
}

func TestArenaBackendSelection(t *testing.T) {
	for _, backend := range []string{leanconsensus.BackendSched, leanconsensus.BackendHybrid, leanconsensus.BackendMsgNet} {
		a, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{
			Shards: 2, N: 4, Seed: 5, Backend: backend,
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		res, err := a.Propose(context.Background(), "k", 1)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Value != 0 && res.Value != 1 {
			t.Fatalf("%s decided %d", backend, res.Value)
		}
		a.Close()
	}
	if _, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{Backend: "bogus"}); err == nil {
		t.Error("NewArena accepted an unknown backend")
	}
}

// TestArenaTraces exercises the public flight-recorder surface: TraceK
// arms per-shard capture, Traces returns ranked instances with decoded
// event kinds, and an untraced arena returns nil.
func TestArenaTraces(t *testing.T) {
	run := func() []leanconsensus.TraceInstance {
		a, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{
			Shards: 2, Workers: 1, N: 4, Seed: 9, TraceK: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 40; i++ {
			if _, err := a.Propose(ctx, fmt.Sprintf("t-%d", i), i%2); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		return a.Traces()
	}

	captures := run()
	if len(captures) == 0 || len(captures) > 4 {
		t.Fatalf("got %d captures, want 1..4 (TraceK=2 × 2 shards)", len(captures))
	}
	kinds := map[string]bool{}
	for _, inst := range captures {
		if inst.Model != leanconsensus.BackendSched || inst.N != 4 {
			t.Errorf("capture %q tagged model=%q n=%d", inst.Key, inst.Model, inst.N)
		}
		if len(inst.Events) == 0 {
			t.Errorf("capture %q has no events", inst.Key)
		}
		for _, ev := range inst.Events {
			kinds[ev.Kind.String()] = true
		}
	}
	for _, want := range []string{"start", "op", "decide"} {
		if !kinds[want] {
			t.Errorf("no %q event in any capture (kinds seen: %v)", want, kinds)
		}
	}

	// Capture selection ranks only simulated quantities, so the same
	// workload yields the same captures regardless of scheduling.
	again := run()
	if len(again) != len(captures) {
		t.Fatalf("reran to %d captures, first run had %d", len(again), len(captures))
	}
	for i := range captures {
		if captures[i].Key != again[i].Key || len(captures[i].Events) != len(again[i].Events) {
			t.Errorf("capture %d differs across identical runs: %q/%d vs %q/%d",
				i, captures[i].Key, len(captures[i].Events), again[i].Key, len(again[i].Events))
		}
	}

	// Untraced arenas report nil, not empty.
	a, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{Shards: 1, N: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Propose(context.Background(), "k", 0); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got := a.Traces(); got != nil {
		t.Errorf("untraced arena returned %d captures, want nil", len(got))
	}
}

// TestArenaTracesCallerOwned checks that Traces hands out slices the
// caller owns: overwriting an event in one result leaves the captures a
// second call returns untouched.
func TestArenaTracesCallerOwned(t *testing.T) {
	a, err := leanconsensus.NewArena(leanconsensus.ArenaConfig{
		Shards: 1, Workers: 1, N: 4, Seed: 9, TraceK: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := a.Propose(context.Background(), fmt.Sprintf("t-%d", i), i%2); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	first := a.Traces()
	if len(first) == 0 || len(first[0].Events) == 0 {
		t.Fatal("no captured events")
	}
	want := first[0].Events[0]
	first[0].Events[0] = leanconsensus.TraceEvent{}
	if got := a.Traces()[0].Events[0]; got != want {
		t.Fatalf("second Traces call returned %+v, want %+v", got, want)
	}
}

func TestBackendsListsRegistry(t *testing.T) {
	names := leanconsensus.Backends()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{
		leanconsensus.BackendSched, leanconsensus.BackendHybrid, leanconsensus.BackendMsgNet,
	} {
		if !seen[want] {
			t.Errorf("Backends() = %v is missing %q", names, want)
		}
	}
}
