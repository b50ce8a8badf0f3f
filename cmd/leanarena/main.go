// Command leanarena is a load generator for the consensus arena: it
// submits many independent lean-consensus instances to a sharded
// worker-pool service and reports aggregate throughput, latency, and
// decision statistics.
//
// Usage:
//
//	leanarena -instances 10000 -shards 8 [-workers 2] [-n 8]
//	          [-dist exponential] [-backend sched|hybrid|msgnet]
//	          [-adversary NAME[:param=value...]] [-seed 1]
//	          [-trace K] [-json] [-list] [-version]
//
// -trace K arms the flight recorder: the K most interesting instances
// per shard (violations first, then the deepest rounds) are captured
// with their full event timelines and attached to the JSON report's
// "trace" block. Capture selection ranks only simulated quantities, so
// traced reports stay byte-identical across runs.
//
// The -backend flag resolves through the engine's model registry, so any
// newly registered execution model is immediately available; -list prints
// the registry. With -json the deterministic report is written to stdout
// (two runs with the same flags are byte-identical) and the wall-clock
// throughput line goes to stderr; without it everything is printed as
// text. The decision fields — decided0/1, total_ops, mean_first_round,
// max_last_round, and the checksum — never depend on -shards or
// -workers; only the echoed pool shape, the per-shard split, and the
// trace block do.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/cli"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/stats"
	"leanconsensus/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, cli.ErrUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "leanarena:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("leanarena", flag.ContinueOnError)
	instances := fs.Int("instances", 10000, "number of consensus instances to run")
	shards := fs.Int("shards", arena.DefaultShards, "number of shards")
	workers := fs.Int("workers", arena.DefaultWorkers, "workers per shard")
	n := fs.Int("n", arena.DefaultN, "processes per consensus instance")
	distName := fs.String("dist", "exponential", "noise distribution (see -list)")
	backendName := fs.String("backend", "sched", "execution model (see -list)")
	advName := fs.String("adversary", "", "adversarial schedule, e.g. antileader:m=8 (see -list)")
	seed := fs.Uint64("seed", 1, "arena seed (fixes decisions and simulated metrics)")
	traceK := fs.Int("trace", 0, "capture the K most interesting instances per shard into the JSON report (0: off)")
	jsonOut := fs.Bool("json", false, "emit the deterministic JSON report on stdout")
	list := fs.Bool("list", false, "list execution models and distributions, then exit")
	version := fs.Bool("version", false, "print build information, then exit")
	if done, err := cli.Parse(fs, args); done {
		return err
	}
	if *version {
		cli.PrintVersion(stdout, "leanarena")
		return nil
	}

	if *list {
		cli.List(stdout)
		return nil
	}
	if *instances <= 0 {
		return fmt.Errorf("-instances must be positive, got %d", *instances)
	}
	d, err := cli.Distribution(*distName)
	if err != nil {
		return err
	}
	model, err := cli.Model(*backendName)
	if err != nil {
		return err
	}
	// arena.New validates the model/adversary pairing with the engine's
	// typed error, so no pre-check is needed here.
	adv, err := cli.Adversary(*advName)
	if err != nil {
		return err
	}
	if engine.IgnoresNoise(model) {
		// An explicitly chosen distribution that can't affect the outcome is
		// an error, not a silently wrong run (default noise still appears in
		// reports as configuration).
		distSet := false
		fs.Visit(func(f *flag.Flag) { distSet = distSet || f.Name == "dist" })
		if distSet {
			return fmt.Errorf("-dist has no effect on -backend %s: the model declares noise cannot affect it",
				model.Name())
		}
	}

	if *traceK < 0 {
		return fmt.Errorf("-trace must be non-negative, got %d", *traceK)
	}
	if *traceK > 0 && !*jsonOut {
		return fmt.Errorf("-trace captures render only in the JSON report: add -json")
	}
	var tc *arena.TraceConfig
	if *traceK > 0 {
		tc = &arena.TraceConfig{PerShard: *traceK}
	}

	a, err := arena.New(arena.Config{
		Shards:    *shards,
		Workers:   *workers,
		N:         *n,
		Noise:     d,
		Model:     model,
		Adversary: adv,
		Seed:      *seed,
		Trace:     tc,
	})
	if err != nil {
		return err
	}

	// The proposed bits come from the seed's own deterministic stream, so
	// the workload — not just the service — replays under a fixed seed.
	bits := xrand.New(*seed, 0x6c6f6164) // "load"
	results := make([]arena.Result, *instances)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *instances; i++ {
		key := fmt.Sprintf("key-%08d", i)
		done, err := a.Submit(key, bits.Intn(2))
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
	elapsed := time.Since(start)
	if err := a.Close(); err != nil {
		return err
	}

	st := a.Stats()
	decided := st.Totals.Decided[0] + st.Totals.Decided[1]
	throughput := float64(decided) / elapsed.Seconds()

	if *jsonOut {
		rep := arena.BuildReport(a.Config(), results)
		rep.Trace = a.Traces()
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if _, err := stdout.Write(b); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "throughput: %.0f decisions/sec (%d instances in %v)\n",
			throughput, decided, elapsed.Round(time.Millisecond))
		return nil
	}

	var lat stats.Acc
	for _, r := range results {
		lat.Add(r.Latency.Seconds() * 1e6)
	}
	if adv.IsZero() {
		fmt.Fprintf(stdout, "leanarena: backend=%s dist=%s seed=%d\n", model.Name(), d, *seed)
	} else {
		fmt.Fprintf(stdout, "leanarena: backend=%s dist=%s adversary=%s seed=%d\n",
			model.Name(), d, adv.Name(), *seed)
	}
	fmt.Fprintf(stdout, "  instances:   %d across %d shards × %d workers (n=%d per instance)\n",
		*instances, a.Config().Shards, a.Config().Workers, a.Config().N)
	fmt.Fprintf(stdout, "  decided:     %d zeros, %d ones, %d errors\n",
		st.Totals.Decided[0], st.Totals.Decided[1], st.Totals.Errors)
	fmt.Fprintf(stdout, "  rounds:      mean first %.2f, max last %d\n",
		st.MeanFirstRound(), st.Totals.MaxRound)
	fmt.Fprintf(stdout, "  ops:         %d total\n", st.Totals.Ops)
	fmt.Fprintf(stdout, "  latency µs:  %s\n", lat.String())
	fmt.Fprintf(stdout, "  elapsed:     %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  throughput:  %.0f decisions/sec\n", throughput)

	// Shard balance: consistent hashing should spread keys evenly.
	sorted := perShard(results, a.Config().Shards)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	fmt.Fprintf(stdout, "  shard load:  min %d / max %d per shard\n", sorted[0], sorted[len(sorted)-1])
	return nil
}

// perShard counts instances routed to each shard.
func perShard(results []arena.Result, shards int) []int64 {
	counts := make([]int64, shards)
	for _, r := range results {
		if r.Shard >= 0 && r.Shard < shards {
			counts[r.Shard]++
		}
	}
	return counts
}
