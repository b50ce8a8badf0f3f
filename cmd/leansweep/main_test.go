package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leanconsensus/internal/cli"
)

// sweep runs the CLI and returns stdout.
func sweep(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("leansweep %v: %v", args, err)
	}
	return out.String()
}

func TestList(t *testing.T) {
	out := sweep(t, "-list")
	for _, want := range []string{"execution models:", "sched", "noise distributions:", "exponential"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestHelpAndUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if err := run(context.Background(), []string{"-bogus"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("bad flag: err = %v, want ErrUsage", err)
	}
	for _, args := range [][]string{
		{},                                // no spec, no reps
		{"-reps", "2", "-format", "yaml"}, // bad format
		{"-resume"},                       // -resume without -checkpoint
		{"-spec", "fig1", "-reps", "3"},   // spec + grid flags
		{"-reps", "2", "-ns", "4,x"},      // unparseable list
		{"-reps", "2", "-models", "nope"}, // unknown model
		{"-spec", "/nonexistent/spec.json"},
	} {
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestInlineGridCSV checks the inline-flag path end to end and the CSV
// shape.
func TestInlineGridCSV(t *testing.T) {
	out := sweep(t, "-dists", "exponential,uniform", "-ns", "4,8", "-seeds", "1,2",
		"-reps", "5", "-shards", "2", "-q")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("CSV has %d lines, want header + 8 cells:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "model,dist,adversary,n,seed,reps,") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "sched,exponential,zero,4,1,5,") {
		t.Fatalf("unexpected first cell %q", lines[1])
	}
}

// TestSpecFileMatchesInline runs the same grid via a spec file and
// inline flags: identical bytes.
func TestSpecFileMatchesInline(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(
		`{"dists":["exponential"],"ns":[4,8],"seeds":[1],"reps":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile := sweep(t, "-spec", spec, "-q")
	fromFlags := sweep(t, "-dists", "exponential", "-ns", "4,8", "-seeds", "1", "-reps", "10", "-q")
	if fromFile != fromFlags {
		t.Fatalf("spec-file and inline runs differ:\n%s\nvs\n%s", fromFile, fromFlags)
	}
}

// TestBuiltinFig1Table smoke-runs the shipped fig1 spec in table format.
func TestBuiltinFig1Table(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 campaign is ~1s")
	}
	out := sweep(t, "-spec", "fig1", "-format", "table", "-q")
	if !strings.Contains(out, "mean round of first termination") {
		t.Fatalf("fig1 table missing header:\n%s", out)
	}
	if !strings.Contains(out, "exponential(mean=1)") {
		t.Fatalf("fig1 table missing distribution label:\n%s", out)
	}
}

// adversarialGrid is the adversary-bearing campaign both golden tests
// run — two schedules — and shapes the two pool shapes they run it on.
var (
	adversarialGrid = []string{"-models", "sched", "-dists", "exponential",
		"-adversaries", "antileader:m=2,stagger:gap=1.5",
		"-ns", "4,8", "-seeds", "1", "-reps", "25", "-q"}
	shapes = [][]string{
		{"-shards", "1", "-workers", "1"},
		{"-shards", "4", "-workers", "2"},
	}
)

// withShape assembles a leansweep command line: args, then a pool shape,
// then the adversarial grid.
func withShape(shape []string, args ...string) []string {
	return append(append(append([]string{}, args...), shape...), adversarialGrid...)
}

// TestAdversarialGridGoldenAcrossShapesAndResume is the cross-layer
// golden check for the adversary axis: an adversary-bearing campaign —
// two schedules, two pool shapes — emits byte-identical CSV whether run
// straight through, on a different pool, or interrupted after its first
// checkpointed cell and resumed with -resume.
func TestAdversarialGridGoldenAcrossShapesAndResume(t *testing.T) {
	golden := sweep(t, withShape(shapes[0])...)
	if got := sweep(t, withShape(shapes[1])...); got != golden {
		t.Fatalf("adversarial grid differs across pool shapes:\n%s\nvs\n%s", golden, got)
	}
	for _, label := range []string{",antileader:m=2,", ",stagger:gap=1.5,"} {
		if !strings.Contains(golden, label) {
			t.Fatalf("adversarial CSV missing label %q:\n%s", label, golden)
		}
	}

	// Interrupt each shape's checkpointed run once the manifest appears,
	// then resume on that shape: same bytes as the golden run.
	for i, shape := range shapes {
		ckpt := filepath.Join(t.TempDir(), "adv.ckpt.json")
		interrupt(t, ckpt, withShape(shape, "-checkpoint", ckpt))
		if resumed := sweep(t, withShape(shape, "-checkpoint", ckpt, "-resume")...); resumed != golden {
			t.Fatalf("shape %d adversarial resume differs from golden:\n%s\nvs\n%s", i, resumed, golden)
		}
	}
}

// TestExecModesGoldenByteIdentical is the execution-independence golden:
// campaigns have one execution path (arena cells), so the pool shape is
// the only way left to execute a sweep differently, and the adversarial
// grid must emit byte-identical reports in all three formats on either
// shape, and when interrupted on one shape and resumed on the *other* —
// the checkpoint manifest records no shape.
func TestExecModesGoldenByteIdentical(t *testing.T) {
	for _, format := range []string{"csv", "json", "table"} {
		golden := sweep(t, withShape(shapes[0], "-format", format)...)
		if got := sweep(t, withShape(shapes[1], "-format", format)...); got != golden {
			t.Fatalf("%s: report differs across pool shapes:\n%s\nvs\n%s", format, golden, got)
		}
		for i, shape := range shapes {
			other := shapes[1-i]
			ckpt := filepath.Join(t.TempDir(), "exec.ckpt.json")
			interrupt(t, ckpt, withShape(shape, "-format", format, "-checkpoint", ckpt))
			resumed := sweep(t, withShape(other, "-format", format, "-checkpoint", ckpt, "-resume")...)
			if resumed != golden {
				t.Fatalf("%s: shape %d run resumed on shape %d differs from golden:\n%s\nvs\n%s",
					format, i, 1-i, resumed, golden)
			}
		}
	}

	// -trace rides the same cells: the JSON report gains a trace block
	// whose captures name their cell and repetition.
	traced := sweep(t, withShape(shapes[0], "-format", "json", "-trace", "1")...)
	if !strings.Contains(traced, `"trace"`) || !strings.Contains(traced, ",rep=") {
		t.Fatalf("-trace produced no per-repetition captures:\n%s", traced)
	}
}

// interrupt runs the CLI with args and cancels it as soon as the
// checkpoint manifest at ckpt appears. The sweep may legitimately finish
// first; either way the manifest is left for a -resume run.
func interrupt(t *testing.T, ckpt string, args []string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	watch := make(chan struct{})
	go func() {
		defer close(watch)
		for {
			if _, err := os.Stat(ckpt); err == nil {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	var out bytes.Buffer
	err := run(ctx, args, &out)
	cancel()
	<-watch
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run %v: %v", args, err)
	}
}

// TestInterruptResumeByteIdentical is the CLI-level acceptance check:
// cancel a checkpointed sweep partway (the SIGINT path is this ctx
// cancellation), rerun with -resume, and require the final CSV to equal
// an uninterrupted run's bytes.
func TestInterruptResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-dists", "exponential,uniform", "-ns", "4,8", "-seeds", "1,2",
		"-reps", "30", "-shards", "2", "-q"}

	full := sweep(t, args...)

	// Interrupted run: cancel the context once the first cell has been
	// checkpointed (watch the manifest appear, then cancel).
	ckpt := filepath.Join(dir, "sweep.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	watch := make(chan struct{})
	go func() {
		defer close(watch)
		for {
			if _, err := os.Stat(ckpt); err == nil {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}()
	var out bytes.Buffer
	err := run(ctx, append([]string{"-checkpoint", ckpt}, args...), &out)
	cancel()
	<-watch
	if err == nil {
		// The sweep may legitimately finish before the watcher cancels;
		// resume must then be a pure report re-emit. Either way the bytes
		// must match below.
		t.Log("sweep finished before the interrupt landed")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}

	resumed := sweep(t, append([]string{"-checkpoint", ckpt, "-resume"}, args...)...)
	if resumed != full {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", resumed, full)
	}

	// A third run without -resume must refuse the existing checkpoint.
	if err := run(context.Background(), append([]string{"-checkpoint", ckpt}, args...), &out); err == nil {
		t.Fatal("existing checkpoint clobbered without -resume")
	}
}
