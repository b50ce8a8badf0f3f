package arena_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
)

// arenaGoldenSHA256 is the digest of the arena battery below. It pins
// what the arena serves — decisions, reports, capture sets with their
// events, and counters — across commits, where the replay tests compare
// a build only with itself. A change to the serving path must leave it
// unchanged; one that alters output on purpose regenerates it and says
// why.
const arenaGoldenSHA256 = "bb2428de43c0e2be562e28af4be504c5b3c566585d5d3abafb76fdb59349a07a"

// TestArenaGolden hashes Submit batches over models sched, hybrid and
// msgnet (each with the zero schedule and, where the model accepts one,
// an adversary), untraced and traced, at several sizes and pool shapes,
// plus the captures of traced 200-repetition cells whose many tied
// LastRound/Ops values leave the keys to decide what is kept.
func TestArenaGolden(t *testing.T) {
	h := sha256.New()
	models := []struct {
		name string
		advs []string
		ns   []int
	}{
		{"sched", []string{"zero", "antileader:m=2"}, []int{5, 8, 16}},
		{"hybrid", []string{"zero", "sticky"}, []int{5, 8, 16}},
		{"msgnet", []string{""}, []int{5}},
	}
	shapes := [][2]int{{1, 1}, {3, 2}, {4, 4}}
	traces := []*arena.TraceConfig{nil, {PerShard: 3}}
	for _, m := range models {
		model, err := engine.ByName(m.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, advSpec := range m.advs {
			var adv *engine.Adversary
			if advSpec != "" {
				if adv, err = engine.ResolveAdversary(advSpec); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range m.ns {
				for _, shape := range shapes {
					for _, tc := range traces {
						cfg := arena.Config{
							Shards: shape[0], Workers: shape[1], N: n, Seed: uint64(n)*7919 + 13,
							Model: model, Adversary: adv, Trace: tc,
						}
						fmt.Fprintf(h, "submit|%s|%s|%d|%dx%d|%v\n", m.name, advSpec, n, shape[0], shape[1], tc != nil)
						goldenSubmitBatch(t, h, cfg, 64)
					}
				}
			}
		}
	}
	goldenCells(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != arenaGoldenSHA256 {
		t.Fatalf("arena output digest %s, want %s: arena output changed", got, arenaGoldenSHA256)
	}
}

// goldenSubmitBatch serves count proposals on a fresh arena and hashes
// the traced report and the arena's counters.
func goldenSubmitBatch(t *testing.T, h hash.Hash, cfg arena.Config, count int) {
	t.Helper()
	a, err := arena.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan arena.Result, count)
	for i := range chans {
		if chans[i], err = a.Submit(fmt.Sprintf("g-%03d", i), (i*5/3)%2); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]arena.Result, count)
	for i, ch := range chans {
		results[i] = <-ch
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	rep := arena.BuildReport(a.Config(), results)
	rep.Trace = a.Traces()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	totals, err := json.Marshal(a.Stats().Totals)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(totals)
}

// goldenCells runs traced 200-repetition cells at small sizes, where
// most repetitions tie on (LastRound, Ops), and hashes each cell's
// counters and captures.
func goldenCells(t *testing.T, h hash.Hash) {
	t.Helper()
	a, err := arena.New(arena.Config{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cells := []struct {
		model string
		adv   string
		n     int
	}{
		{"sched", "", 1},
		{"sched", "", 2},
		{"sched", "antileader:m=2", 3},
		{"hybrid", "", 2},
		{"hybrid", "sticky", 3},
	}
	err = a.RunCells(context.Background(), len(cells), func(c int) arena.CellRequest {
		model, err := engine.ByName(cells[c].model)
		if err != nil {
			t.Fatal(err)
		}
		var adv *engine.Adversary
		if cells[c].adv != "" {
			if adv, err = engine.ResolveAdversary(cells[c].adv); err != nil {
				t.Fatal(err)
			}
		}
		return arena.CellRequest{
			Model: model, Key: fmt.Sprintf("cell-%d", c), N: cells[c].n,
			Noise: dist.TwoPoint{A: 1, B: 2}, Adversary: adv, Reps: 200,
			Seed:  func(rep int) uint64 { return uint64(c)*1_000_003 + uint64(rep) },
			Sink:  &recordingSink{},
			Trace: &arena.TraceConfig{PerShard: 4},
		}
	}, func(c int, r arena.CellResult) {
		b, err := json.Marshal(struct {
			Stats  arena.ShardStats
			Traces any
		}{r.Stats, r.Traces})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "cell|%d|%d\n", c, r.Errors)
		h.Write(b)
	})
	if err != nil {
		t.Fatal(err)
	}
}
