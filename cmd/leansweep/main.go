// Command leansweep runs declarative experiment campaigns: cartesian
// grids over execution models, noise distributions, process counts, and
// seeds, executed through the sharded arena with streaming per-cell
// aggregation, checkpoint/resume, and deterministic reports. Each grid
// cell travels to one worker as a single arena cell and runs as one
// tight loop over the worker's pooled session.
//
// Usage:
//
//	leansweep -spec fig1 [-format csv|json|table]
//	leansweep -spec sweep.json [-checkpoint sweep.ckpt] [-resume]
//	leansweep -dists exponential,uniform -ns 4,8 -seeds 1,2 -reps 100
//	          [-models sched] [-adversaries zero,antileader:m=8]
//	          [-name mysweep] [-shards 8] [-workers 2]
//	          [-trace K] [-version]
//	leansweep -list
//
// -trace K (JSON format only) arms the flight recorder: the K most
// interesting instances per arena shard — violations first, then the
// deepest rounds — are attached, with their full event timelines, to
// the report's "trace" block, each named "<cell key>,rep=<rep>". Captures
// rank on simulated quantities only, so traced reports replay
// byte-identically for a given pool shape; the per-shard budget ranks
// the repetitions of the cells each shard served, so the trace block
// (and only it) depends on -shards. CSV, table, and checkpoint bytes are
// never affected.
//
// A campaign is specified either by a JSON file (-spec path; the
// POST /v1/campaigns wire format), by the built-in name "fig1" (the
// shipped port of the paper's Figure 1 at bench scale), or inline by the
// grid flags. The deterministic report goes to stdout — byte-identical
// for a given spec across runs, pool shapes, and interrupt/resume
// boundaries — while progress and wall-clock throughput go to stderr.
//
// With -checkpoint the campaign atomically snapshots every completed
// cell; an interrupted sweep rerun with -resume skips finished cells and
// still emits the exact bytes of an uninterrupted run. Without -resume
// an existing checkpoint is refused rather than clobbered.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, cli.ErrUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "leansweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("leansweep", flag.ContinueOnError)
	specSrc := fs.String("spec", "", `campaign spec: a JSON file path or the built-in "fig1"`)
	name := fs.String("name", "", "campaign name for reports and manifests (inline grids)")
	models := fs.String("models", "", "comma-separated execution models (see -list; default sched)")
	dists := fs.String("dists", "", "comma-separated noise distributions (see -list; default exponential)")
	adversaries := fs.String("adversaries", "", "comma-separated adversarial schedules, e.g. zero,antileader:m=8 (see -list; default zero)")
	ns := fs.String("ns", "", "comma-separated process counts (default 8)")
	seeds := fs.String("seeds", "", "comma-separated cell seeds (default 1)")
	reps := fs.Int("reps", 0, "repetitions per grid cell (required for inline grids)")
	shards := fs.Int("shards", arena.DefaultShards, "arena shards")
	workers := fs.Int("workers", arena.DefaultWorkers, "arena workers per shard")
	checkpoint := fs.String("checkpoint", "", "manifest path: atomically snapshot each completed cell")
	resume := fs.Bool("resume", false, "resume an existing checkpoint (requires -checkpoint)")
	format := fs.String("format", "csv", "report format: csv, json, or table (Figure-1-shaped)")
	traceK := fs.Int("trace", 0, "capture the K most interesting instances per shard into the JSON report (0: off)")
	quiet := fs.Bool("q", false, "suppress per-cell progress on stderr")
	list := fs.Bool("list", false, "list execution models and distributions, then exit")
	version := fs.Bool("version", false, "print build information, then exit")
	if done, err := cli.Parse(fs, args); done {
		return err
	}
	if *version {
		cli.PrintVersion(stdout, "leansweep")
		return nil
	}
	if *list {
		cli.List(stdout)
		return nil
	}
	switch *format {
	case "csv", "json", "table":
	default:
		return fmt.Errorf("-format must be csv, json, or table, got %q", *format)
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *traceK < 0 {
		return fmt.Errorf("-trace must be non-negative, got %d", *traceK)
	}
	if *traceK > 0 && *format != "json" {
		return fmt.Errorf("-trace captures render only in the JSON report: use -format json")
	}

	camp, err := resolveSpec(*specSrc, campaign.Spec{
		Name:        *name,
		Models:      splitList(*models),
		Dists:       splitList(*dists),
		Adversaries: splitList(*adversaries),
		Ns:          nil,
		Seeds:       nil,
		Reps:        *reps,
	}, *ns, *seeds, fs)
	if err != nil {
		return err
	}

	cfg := campaign.Config{
		Shards:     *shards,
		Workers:    *workers,
		Checkpoint: *checkpoint,
		Resume:     *resume,
	}
	if *traceK > 0 {
		cfg.Trace = &arena.TraceConfig{PerShard: *traceK}
	}
	if !*quiet {
		// Pace accounting rides on the campaign's own cell-latency feed:
		// cells run sequentially through one arena, so the mean observed
		// cell latency times the remaining cells is the ETA, and the
		// latency sum (not wall time, which includes resume skips and
		// checkpoint writes) is the cells/sec denominator.
		var latencySum time.Duration
		var timed int
		cfg.OnCell = func(p campaign.Progress) {
			if p.CellKey == "" {
				fmt.Fprintf(os.Stderr, "leansweep: resumed %d/%d cells from checkpoint\n",
					p.CellsDone, p.CellsTotal)
				return
			}
			latencySum += p.CellLatency
			timed++
			pace := ""
			if latencySum > 0 {
				rate := float64(timed) / latencySum.Seconds()
				eta := time.Duration(float64(p.CellsTotal-p.CellsDone) / rate * float64(time.Second))
				pace = fmt.Sprintf("; %.1f cells/s, eta %v", rate, eta.Round(100*time.Millisecond))
			}
			fmt.Fprintf(os.Stderr, "leansweep: cell %d/%d done (%s; instances %d/%d%s)\n",
				p.CellsDone, p.CellsTotal, p.CellKey, p.InstancesDone, p.InstancesTotal, pace)
		}
	}

	start := time.Now()
	rep, err := camp.Run(ctx, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	switch *format {
	case "json":
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if _, err := stdout.Write(b); err != nil {
			return err
		}
	case "table":
		if _, err := io.WriteString(stdout, rep.Fig1Table().Text()); err != nil {
			return err
		}
	default:
		if _, err := io.WriteString(stdout, rep.CSV()); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "leansweep: %d cells, %d instances in %v\n",
		len(camp.Cells), camp.Instances, elapsed.Round(time.Millisecond))
	return nil
}

// resolveSpec builds the campaign from -spec (file or built-in) or from
// the inline grid flags; mixing the two is an error, since a file spec
// silently overridden by a stray flag would be a silently wrong sweep.
func resolveSpec(src string, inline campaign.Spec, ns, seeds string, fs *flag.FlagSet) (*campaign.Campaign, error) {
	gridFlags := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "name", "models", "dists", "adversaries", "ns", "seeds", "reps":
			gridFlags = true
		}
	})
	if src != "" {
		if gridFlags {
			return nil, fmt.Errorf("-spec and inline grid flags are mutually exclusive")
		}
		if src == "fig1" {
			return campaign.Fig1Spec().Resolve()
		}
		f, err := os.Open(src)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return campaign.DecodeSpec(f)
	}
	if inline.Reps == 0 {
		return nil, fmt.Errorf("-reps is required (or use -spec)")
	}
	var err error
	if inline.Ns, err = parseInts(ns); err != nil {
		return nil, fmt.Errorf("-ns: %v", err)
	}
	if inline.Seeds, err = parseUints(seeds); err != nil {
		return nil, fmt.Errorf("-seeds: %v", err)
	}
	return inline.Resolve()
}

// splitList splits a comma-separated flag value; empty means nil
// (default).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseInts parses a comma-separated int list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseUints parses a comma-separated uint64 list.
func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, p := range splitList(s) {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
