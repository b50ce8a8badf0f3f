// Command leanperf records the repository's performance trajectory: a
// fixed suite of probes — engine model runs (fresh, and on a pooled
// session: sched and hybrid at n=64, msgnet at n=8), arena service
// throughput (plain and with the flight recorder armed), a campaign
// sweep, and the cell-batched campaign path — measured for throughput,
// ns/op, allocs/op, and wall-clock latency percentiles, written as one
// BENCH_<n>.json snapshot per PR and gated against the previous
// snapshot.
//
// Usage:
//
//	leanperf -scale bench [-out BENCH_6.json] [-baseline auto|none|PATH]
//	         [-tol 0.5] [-alloc-slack 1.0] [-cpuprofile default.pgo] [-version]
//
// -cpuprofile writes a CPU profile covering the whole probe suite. The
// suite spans the hot paths the binaries spend their time on (engine
// model runs, arena service, batched campaign cells), which makes the
// profile a natural profile-guided-optimization input: the committed
// default.pgo at the repository root is exactly such a capture, and
// `go build -pgo=default.pgo ./...` consumes it.
//
// Without -out the snapshot goes to stdout. -baseline auto (the
// default) scans the output directory for the highest-numbered other
// BENCH_<n>.json and compares against it: the run fails if any probe's
// throughput drops below (1 - tol) of the baseline or its allocs/op
// exceeds the baseline by more than -alloc-slack. A missing baseline is
// a note, not a failure, so the first snapshot of a repo bootstraps the
// trajectory. The comparison report always goes to stderr.
//
// Probe measurements are wall-clock and therefore machine-dependent;
// the committed snapshots track the trajectory on one machine class,
// while CI compares snapshots taken on its own runners with generous
// tolerances. Each probe's "op" is its own unit (an engine run, an
// arena decision, a campaign instance), so ratios are comparable
// across snapshots but absolute numbers are not comparable across
// probes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/cli"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/harness"
	"leanconsensus/internal/metrics"
)

// Schema identifies the snapshot layout; bump on incompatible change.
const Schema = "leanperf/v1"

// Bench is one probe's measurements.
type Bench struct {
	// Name identifies the probe ("arena/throughput", ...).
	Name string `json:"name"`
	// Ops is the number of operations the probe ran.
	Ops int `json:"ops"`
	// Throughput is ops per wall-clock second.
	Throughput float64 `json:"throughput_per_sec"`
	// NsPerOp is wall-clock nanoseconds per op.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per op (runtime.MemStats.Mallocs
	// across the measured loop, including any worker goroutines serving
	// it — the service cost, not just the caller's).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// P50 and P99 are latency percentiles in microseconds over the
	// probe's per-unit wall-clock latencies (see each probe for its
	// unit).
	P50 float64 `json:"p50_us"`
	P99 float64 `json:"p99_us"`
}

// BenchFile is one committed performance snapshot.
type BenchFile struct {
	Schema     string  `json:"schema"`
	Scale      string  `json:"scale"`
	Go         string  `json:"go"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, cli.ErrUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "leanperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("leanperf", flag.ContinueOnError)
	scaleName := fs.String("scale", "bench", "probe scale: bench, default, or full")
	out := fs.String("out", "", "snapshot path, e.g. BENCH_6.json (default stdout)")
	baseline := fs.String("baseline", "auto", `baseline snapshot: "auto" (highest other BENCH_<n>.json next to -out), "none", or a path`)
	tol := fs.Float64("tol", 0.5, "allowed fractional throughput drop vs baseline before failing")
	allocSlack := fs.Float64("alloc-slack", 1.0, "allowed allocs/op increase vs baseline before failing")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the probe suite (pprof format, PGO-ready)")
	version := fs.Bool("version", false, "print build information, then exit")
	if done, err := cli.Parse(fs, args); done {
		return err
	}
	if *version {
		cli.PrintVersion(stdout, "leanperf")
		return nil
	}
	sc, err := harness.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	if *tol < 0 || *tol >= 1 {
		return fmt.Errorf("-tol must be in [0,1), got %g", *tol)
	}
	if *allocSlack < 0 {
		return fmt.Errorf("-alloc-slack must be non-negative, got %g", *allocSlack)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
		fmt.Fprintf(stderr, "leanperf: capturing CPU profile to %s\n", *cpuprofile)
	}

	bf := &BenchFile{Schema: Schema, Scale: canonScale(*scaleName), Go: runtime.Version()}
	for _, p := range probes {
		fmt.Fprintf(stderr, "leanperf: running %s...\n", p.name)
		b, err := p.run(sc)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		b.Name = p.name
		fmt.Fprintf(stderr, "leanperf:   %d ops, %.0f/sec, %.0f ns/op, %.2f allocs/op, p50=%.1fµs p99=%.1fµs\n",
			b.Ops, b.Throughput, b.NsPerOp, b.AllocsPerOp, b.P50, b.P99)
		bf.Benchmarks = append(bf.Benchmarks, b)
	}

	enc, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := stdout.Write(enc); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "leanperf: snapshot written to %s\n", *out)
	}

	basePath, err := resolveBaseline(*baseline, *out)
	if err != nil {
		return err
	}
	if basePath == "" {
		fmt.Fprintln(stderr, "leanperf: no baseline snapshot; comparison skipped")
		return nil
	}
	base, err := loadSnapshot(basePath)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", basePath, err)
	}
	notes, regressions := compare(base, bf, *tol, *allocSlack)
	fmt.Fprintf(stderr, "leanperf: comparing against %s (tol=%.0f%%, alloc-slack=%g)\n",
		basePath, *tol*100, *allocSlack)
	for _, n := range notes {
		fmt.Fprintln(stderr, "leanperf:   "+n)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(stderr, "leanperf:   REGRESSION "+r)
		}
		return fmt.Errorf("%d regression(s) against %s", len(regressions), basePath)
	}
	fmt.Fprintln(stderr, "leanperf: no regressions")
	return nil
}

// canonScale canonicalizes the -scale flag for the snapshot ("" means
// default, matching harness.ParseScale).
func canonScale(s string) string {
	if s == "" {
		return "default"
	}
	return s
}

// resolveBaseline maps the -baseline flag to a snapshot path ("" when
// there is nothing to compare against).
func resolveBaseline(flagVal, out string) (string, error) {
	switch flagVal {
	case "none":
		return "", nil
	case "auto":
		dir := "."
		if out != "" {
			dir = filepath.Dir(out)
		}
		return findBaseline(dir, out)
	default:
		return flagVal, nil
	}
}

var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// findBaseline picks the highest-numbered BENCH_<n>.json in dir that is
// not the snapshot being written. It returns "" when none exists.
func findBaseline(dir, exclude string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if exclude != "" && filepath.Clean(path) == filepath.Clean(exclude) {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= bestN {
			continue
		}
		best, bestN = path, n
	}
	return best, nil
}

// loadSnapshot reads and validates a snapshot file.
func loadSnapshot(path string) (*BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf BenchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, err
	}
	if bf.Schema != Schema {
		return nil, fmt.Errorf("schema %q, want %q", bf.Schema, Schema)
	}
	return &bf, nil
}

// compare diffs cur against base. Notes describe every matched probe;
// regressions are the failures: throughput below (1-tol)× baseline,
// allocs/op above baseline + slack, or a probe that disappeared.
// Probes new in cur are a note only, so the suite can grow.
func compare(base, cur *BenchFile, tol, allocSlack float64) (notes, regressions []string) {
	curBy := make(map[string]Bench, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	baseNames := make(map[string]bool, len(base.Benchmarks))
	for _, old := range base.Benchmarks {
		baseNames[old.Name] = true
		now, ok := curBy[old.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in baseline but missing from this run", old.Name))
			continue
		}
		ratio := math.Inf(1)
		if old.Throughput > 0 {
			ratio = now.Throughput / old.Throughput
		}
		notes = append(notes, fmt.Sprintf("%s: throughput %.0f -> %.0f (%.2fx), allocs/op %.2f -> %.2f",
			old.Name, old.Throughput, now.Throughput, ratio, old.AllocsPerOp, now.AllocsPerOp))
		if now.Throughput < old.Throughput*(1-tol) {
			regressions = append(regressions, fmt.Sprintf("%s: throughput %.0f/sec is below %.0f%% of baseline %.0f/sec",
				old.Name, now.Throughput, (1-tol)*100, old.Throughput))
		}
		if now.AllocsPerOp > old.AllocsPerOp+allocSlack {
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op %.2f exceeds baseline %.2f + slack %g",
				old.Name, now.AllocsPerOp, old.AllocsPerOp, allocSlack))
		}
	}
	var added []string
	for name := range curBy {
		if !baseNames[name] {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		notes = append(notes, name+": new probe (no baseline)")
	}
	return notes, regressions
}

// probes is the fixed suite. Names are the comparison keys, so renaming
// one breaks the trajectory — add new probes instead.
var probes = []struct {
	name string
	run  func(sc harness.Scale) (Bench, error)
}{
	{"engine/sched", probeEngine("sched", 8, false, 2000, 20000, 100000)},
	{"engine/msgnet", probeEngine("msgnet", 4, false, 300, 3000, 10000)},
	{"engine/sched-pooled", probeEngine("sched", 64, true, 300, 3000, 15000)},
	{"engine/hybrid-pooled", probeEngine("hybrid", 64, true, 2000, 20000, 100000)},
	{"engine/msgnet-pooled", probeEngine("msgnet", 8, true, 200, 2000, 10000)},
	{"arena/throughput", probeArena(nil, 4000, 40000, 200000)},
	{"arena/traced", probeArena(&arena.TraceConfig{PerShard: 2}, 4000, 40000, 200000)},
	{"campaign/sweep", probeCampaign},
	{"campaign/batch", probeCampaignBatch},
}

// opsFor picks the probe's op count for the scale.
func opsFor(sc harness.Scale, bench, def, full int) int {
	switch sc {
	case harness.ScaleFull:
		return full
	case harness.ScaleDefault:
		return def
	default:
		return bench
	}
}

// measure wraps a probe loop: it garbage-collects, snapshots allocation
// counters, runs fn (which must return one latency sample per unit),
// and assembles the Bench. Latency percentiles come from a
// metrics.Histogram over the default latency buckets — the same sketch
// and Quantile the server's telemetry uses.
func measure(ops int, fn func(h *metrics.Histogram) error) (Bench, error) {
	h := metrics.NewHistogram(nil)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := fn(h); err != nil {
		return Bench{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return Bench{
		Ops:         ops,
		Throughput:  round(float64(ops)/elapsed.Seconds(), 0),
		NsPerOp:     round(float64(elapsed.Nanoseconds())/float64(ops), 0),
		AllocsPerOp: round(float64(after.Mallocs-before.Mallocs)/float64(ops), 2),
		P50:         round(h.Quantile(0.50)*1e6, 2),
		P99:         round(h.Quantile(0.99)*1e6, 2),
	}, nil
}

// round keeps snapshots diff-friendly: values carry no more precision
// than the measurement deserves.
func round(v float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(v*p) / p
}

// probeEngine runs one execution model back to back through the
// engine's registry: op = one consensus instance, latency = its
// wall-clock run time. A pooled probe reuses one warmed engine.Session
// across instances, as every arena worker and campaign cell does; the
// others pay a fresh session's set-up per instance.
func probeEngine(model string, n int, pooled bool, bench, def, full int) func(harness.Scale) (Bench, error) {
	return func(sc harness.Scale) (Bench, error) {
		m, err := engine.ByName(model)
		if err != nil {
			return Bench{}, err
		}
		ops := opsFor(sc, bench, def, full)
		spec := engine.Spec{
			Key:    "perf",
			N:      n,
			Inputs: harness.HalfInputs(n),
			Noise:  dist.Exponential{MeanVal: 1},
		}
		var sess *engine.Session
		if pooled {
			sess = engine.NewSession()
			if _, err := m.Run(spec, sess); err != nil {
				return Bench{}, err
			}
		}
		return measure(ops, func(h *metrics.Histogram) error {
			for i := 0; i < ops; i++ {
				spec.Seed = uint64(i + 1)
				t0 := time.Now()
				if _, err := m.Run(spec, sess); err != nil {
					return err
				}
				h.Observe(time.Since(t0).Seconds())
			}
			return nil
		})
	}
}

// probeArena loads the sharded arena at full concurrency, exactly like
// leanarena: op = one decision, latency = the arena's own
// submission-to-completion wall clock. A non-nil tc arms the flight
// recorder, pinning the cost of tracing in the trajectory.
func probeArena(tc *arena.TraceConfig, bench, def, full int) func(harness.Scale) (Bench, error) {
	return func(sc harness.Scale) (Bench, error) {
		ops := opsFor(sc, bench, def, full)
		a, err := arena.New(arena.Config{
			Shards: 4, Workers: 2, N: 8, Seed: 1, Trace: tc,
		})
		if err != nil {
			return Bench{}, err
		}
		defer a.Close()
		results := make([]arena.Result, ops)
		b, err := measure(ops, func(h *metrics.Histogram) error {
			var wg sync.WaitGroup
			for i := 0; i < ops; i++ {
				done, err := a.Submit(fmt.Sprintf("perf-%08d", i), i%2)
				if err != nil {
					return err
				}
				wg.Add(1)
				go func(i int, done <-chan arena.Result) {
					defer wg.Done()
					results[i] = <-done
				}(i, done)
			}
			wg.Wait()
			for _, r := range results {
				if r.Err != nil {
					return r.Err
				}
				h.Observe(r.Latency.Seconds())
			}
			return nil
		})
		if err != nil {
			return Bench{}, err
		}
		return b, a.Close()
	}
}

// probeCampaign sweeps a small model × n grid through the campaign
// runner: op = one instance, latency = one grid cell's execution time
// (Progress.CellLatency; the cell is the campaign's unit of
// checkpointing).
func probeCampaign(sc harness.Scale) (Bench, error) {
	reps := opsFor(sc, 200, 2000, 10000)
	spec := campaign.Spec{
		Name:   "leanperf",
		Models: []string{"sched"},
		Dists:  []string{"exponential"},
		Ns:     []int{8, 16},
		Seeds:  []uint64{1},
		Reps:   reps,
	}
	camp, err := spec.Resolve()
	if err != nil {
		return Bench{}, err
	}
	ops := int(camp.Instances)
	return measure(ops, func(h *metrics.Histogram) error {
		_, err := camp.Run(context.Background(), campaign.Config{
			Shards:  2,
			Workers: 2,
			OnCell:  func(p campaign.Progress) { h.Observe(p.CellLatency.Seconds()) },
		})
		return err
	})
}

// probeCampaignBatch pins the cell-batched bulk regime: many small cells
// of cheap instances (arena.RunCells over pooled worker sessions — the
// 0 allocs/op loop TestRunBatchZeroAllocs guards). Op = one instance,
// latency = one cell's execution time (Progress.CellLatency). The grid
// deliberately uses the cheapest streaming-model instances (sched, n=4)
// so the probe measures the execution path, not the model: per-op
// dispatch overhead.
func probeCampaignBatch(sc harness.Scale) (Bench, error) {
	reps := opsFor(sc, 1000, 5000, 20000)
	spec := campaign.Spec{
		Name:   "leanperf-batch",
		Models: []string{"sched"},
		Dists:  []string{"exponential"},
		Ns:     []int{4},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		Reps:   reps,
	}
	camp, err := spec.Resolve()
	if err != nil {
		return Bench{}, err
	}
	ops := int(camp.Instances)
	return measure(ops, func(h *metrics.Histogram) error {
		_, err := camp.Run(context.Background(), campaign.Config{
			Shards:  4,
			Workers: 2,
			OnCell:  func(p campaign.Progress) { h.Observe(p.CellLatency.Seconds()) },
		})
		return err
	})
}
