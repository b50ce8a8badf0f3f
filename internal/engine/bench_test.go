package engine_test

import (
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
)

// TestMsgnetAllocs guards msgnet's allocations per run at n=8. A pooled
// session retains the ABD nodes, replica maps, machines, network queue
// and slab, and RNG streams, so a warm run allocates almost nothing (2,
// where the unpooled path once paid ~2700); its bound leaves room for
// pool growth when a seed draws an unusually long schedule, nothing
// more. A fresh run builds all of that anew (108), but its messages are
// plain values in the slab, so its bound fails on any return of
// per-message boxing (248 with pooled, refcounted payload boxes).
func TestMsgnetAllocs(t *testing.T) {
	m, err := engine.ByName("msgnet")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sess  *engine.Session
		bound float64
	}{
		{"pooled", engine.NewSession(), 50},
		{"fresh", nil, 150},
	} {
		t.Run(c.name, func(t *testing.T) {
			inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
			spec := engine.Spec{
				Key:    "alloc-guard",
				N:      len(inputs),
				Inputs: inputs,
				Noise:  dist.Exponential{MeanVal: 1},
			}
			seed := uint64(0)
			run := func() {
				seed++
				spec.Seed = seed
				if _, err := m.Run(spec, c.sess); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pools
			if avg := testing.AllocsPerRun(20, run); avg > c.bound {
				t.Fatalf("%s msgnet run allocates %.0f times, want <= %.0f", c.name, avg, c.bound)
			}
		})
	}
}

// BenchmarkEngineSession quantifies the Session's allocation win: the
// pooled sub-benchmarks reuse one worker session across iterations (the
// arena's steady state), the fresh ones pay the per-run setup cost.
// Compare allocs/op between the pairs.
func BenchmarkEngineSession(b *testing.B) {
	noise := dist.Exponential{MeanVal: 1}
	for _, name := range []string{"sched", "hybrid", "msgnet"} {
		m, err := engine.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, sess *engine.Session) {
			inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := engine.Spec{
					Key:    "bench",
					N:      len(inputs),
					Inputs: inputs,
					Noise:  noise,
					Seed:   uint64(i),
				}
				if _, err := m.Run(spec, sess); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(name+"/pooled", func(b *testing.B) { run(b, engine.NewSession()) })
		b.Run(name+"/fresh", func(b *testing.B) { run(b, nil) })
		if name == "msgnet" {
			// The traced dimension below is enough for the cheap models;
			// msgnet's point here is the pooled-vs-fresh allocation gap
			// (TestMsgnetAllocs guards it).
			continue
		}
		// The tracing dimension: a pooled session with the flight recorder
		// armed (reset per instance, as the arena does). The disabled path
		// above is the 0-allocs baseline this one is compared against.
		b.Run(name+"/traced", func(b *testing.B) {
			sess := engine.NewSession()
			rec := trace.NewRecorder(0)
			sess.SetTrace(rec)
			inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Reset()
				spec := engine.Spec{
					Key:    "bench",
					N:      len(inputs),
					Inputs: inputs,
					Noise:  noise,
					Seed:   uint64(i),
				}
				if _, err := m.Run(spec, sess); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
