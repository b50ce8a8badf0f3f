package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leanconsensus/internal/campaign"
	"leanconsensus/internal/harness"
	"leanconsensus/internal/metrics"
	"leanconsensus/internal/xrand"
)

// microSpec is a small fast grid used across tests: 2 dists × 2 ns ×
// 2 seeds = 8 cells.
func microSpec() campaign.Spec {
	return campaign.Spec{
		Name:  "micro",
		Dists: []string{"exponential", "uniform"},
		Ns:    []int{4, 8},
		Seeds: []uint64{1, 2},
		Reps:  20,
	}
}

// TestInstanceSeedMatchesHarness pins the seed derivation to the
// harness's Figure 1 per-trial mix — the contract the fig1 equivalence
// rests on.
func TestInstanceSeedMatchesHarness(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		n    int
		rep  int
	}{{1, 1, 0}, {1, 100, 49}, {42, 10, 7}} {
		want := xrand.Mix(c.seed, 0xf1601, uint64(c.n), uint64(c.rep))
		if got := campaign.InstanceSeed(c.seed, c.n, c.rep); got != want {
			t.Fatalf("InstanceSeed(%d,%d,%d) = %d, want %d", c.seed, c.n, c.rep, got, want)
		}
	}
}

// TestFig1CampaignMatchesHarness is the acceptance check for the fig1
// port: the shipped campaign spec, run through the arena, must reproduce
// the harness's Figure 1 table — same distributions, same ns, same
// seeds, byte-identical rendering.
func TestFig1CampaignMatchesHarness(t *testing.T) {
	rep, err := campaign.Run(context.Background(), campaign.Fig1Spec(), campaign.Config{
		Shards: 4, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	want, err := harness.Fig1(harness.Fig1Defaults(harness.ScaleBench))
	if err != nil {
		t.Fatal(err)
	}

	got := rep.Fig1Table().CSV()
	wantCSV := want.Tables[0].CSV()
	if got != wantCSV {
		t.Fatalf("campaign Figure 1 diverged from harness:\n--- campaign ---\n%s--- harness ---\n%s", got, wantCSV)
	}

	// Sanity on the grid itself.
	if len(rep.Cells) != 18 {
		t.Fatalf("fig1 campaign has %d cells, want 18", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Errors != 0 || c.AgreementViolations != 0 || c.ValidityViolations != 0 || c.Undecided != 0 {
			t.Fatalf("cell %s/%d reported failures: %+v", c.Dist, c.N, c)
		}
		if c.Decided0+c.Decided1 != c.Reps {
			t.Fatalf("cell %s/%d decided %d of %d", c.Dist, c.N, c.Decided0+c.Decided1, c.Reps)
		}
	}
}

// TestReportDeterministicAcrossPoolShapes checks that the pool shape
// affects wall-clock only: reports from radically different arenas are
// byte-identical.
func TestReportDeterministicAcrossPoolShapes(t *testing.T) {
	ctx := context.Background()
	repA, err := campaign.Run(ctx, microSpec(), campaign.Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	repB, err := campaign.Run(ctx, microSpec(), campaign.Config{Shards: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := repA.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := repB.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ across pool shapes:\n%s\nvs\n%s", a, b)
	}
	if repA.CSV() != repB.CSV() {
		t.Fatal("CSV differs across pool shapes")
	}
}

// TestCheckpointResumeByteIdentical is the acceptance check for
// interrupt/resume: cancel a campaign partway, resume it from the
// manifest, and require the final JSON and CSV to equal an uninterrupted
// run's byte for byte — while the resumed run re-executes only the
// missing cells.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	spec := microSpec()

	// Uninterrupted baseline.
	full, err := campaign.Run(ctx, spec, campaign.Config{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the third completed cell.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt.json")
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, err = campaign.Run(cctx, spec, campaign.Config{
		Shards: 2, Workers: 2, Checkpoint: ckpt,
		OnCell: func(p campaign.Progress) {
			if p.CellsDone == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no manifest after interrupt: %v", err)
	}

	// Resume must skip the completed cells...
	executed := 0
	restored := -1
	resumed, err := campaign.Run(ctx, spec, campaign.Config{
		Shards: 4, Workers: 1, Checkpoint: ckpt, Resume: true,
		OnCell: func(p campaign.Progress) {
			if restored < 0 {
				restored = p.CellsDone
			}
			if p.CellKey != "" {
				executed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored < 3 {
		t.Fatalf("resume restored %d cells, want >= 3", restored)
	}
	if want := 8 - restored; executed != want {
		t.Fatalf("resume executed %d cells, want %d (restored %d cells)", executed, want, restored)
	}

	// ... and emit the exact baseline bytes.
	resumedJSON, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedJSON, fullJSON) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\nvs\n%s", resumedJSON, fullJSON)
	}
	if resumed.CSV() != full.CSV() {
		t.Fatal("resumed CSV differs from uninterrupted run")
	}
}

// TestCheckpointRefusesWithoutResume guards against silently clobbering
// an existing manifest.
func TestCheckpointRefusesWithoutResume(t *testing.T) {
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt.json")
	spec := campaign.Spec{Dists: []string{"exponential"}, Ns: []int{4}, Reps: 2}
	if _, err := campaign.Run(ctx, spec, campaign.Config{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(ctx, spec, campaign.Config{Checkpoint: ckpt}); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("second run without resume: err = %v, want already-exists refusal", err)
	}
	// Resuming a fully completed campaign re-runs nothing and still
	// reports everything.
	executed := 0
	rep, err := campaign.Run(ctx, spec, campaign.Config{
		Checkpoint: ckpt, Resume: true,
		OnCell: func(p campaign.Progress) {
			if p.CellKey != "" {
				executed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("resume of a finished campaign executed %d cells", executed)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Reps != 2 {
		t.Fatalf("resume of a finished campaign lost results: %+v", rep.Cells)
	}
}

// TestCheckpointRejectsForeignSpec requires the spec hash to gate
// resumption.
func TestCheckpointRejectsForeignSpec(t *testing.T) {
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt.json")
	if _, err := campaign.Run(ctx, campaign.Spec{Ns: []int{4}, Reps: 2},
		campaign.Config{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	_, err := campaign.Run(ctx, campaign.Spec{Ns: []int{8}, Reps: 2},
		campaign.Config{Checkpoint: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("foreign checkpoint accepted: err = %v", err)
	}
}

// TestNoiseFreeModelCollapsesDistAxis checks the hybrid model's grid
// shape: one cell per (n, seed) under dist "none", however many
// distributions the spec lists.
func TestNoiseFreeModelCollapsesDistAxis(t *testing.T) {
	c, err := campaign.Spec{
		Models: []string{"hybrid", "sched"},
		Dists:  []string{"exponential", "uniform"},
		Ns:     []int{4},
		Reps:   3,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var hybrid, sched int
	for _, cell := range c.Cells {
		switch cell.Job.ModelName {
		case "hybrid":
			hybrid++
			if cell.Job.DistName != "none" {
				t.Fatalf("hybrid cell carries dist %q", cell.Job.DistName)
			}
		case "sched":
			sched++
		}
	}
	if hybrid != 1 || sched != 2 {
		t.Fatalf("grid collapsed wrong: %d hybrid cells (want 1), %d sched cells (want 2)", hybrid, sched)
	}
	rep, err := c.Run(context.Background(), campaign.Config{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Cells {
		if cr.Errors != 0 {
			t.Fatalf("cell %+v errored", cr)
		}
	}
}

// TestCampaignMetrics checks the telemetry bundle totals.
func TestCampaignMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	m := campaign.NewMetrics(reg)
	spec := microSpec()
	if _, err := campaign.Run(context.Background(), spec, campaign.Config{
		Shards: 2, Workers: 2, Metrics: m,
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Cells.Value(); got != 8 {
		t.Fatalf("cells counter = %d, want 8", got)
	}
	if got := m.Instances.Value(); got != int64(8*spec.Reps) {
		t.Fatalf("instances counter = %d, want %d", got, 8*spec.Reps)
	}
	if got := m.Errors.Value(); got != 0 {
		t.Fatalf("errors counter = %d, want 0", got)
	}
	if got := m.CellRounds.Count(); got != 8 {
		t.Fatalf("cell rounds histogram count = %d, want 8", got)
	}
}

// TestAliasesAndDuplicatesCollapse checks cell dedup: alias spellings and
// repeated entries must not double cells.
func TestAliasesAndDuplicatesCollapse(t *testing.T) {
	c, err := campaign.Spec{
		Dists: []string{"two-point", "twopoint"},
		Ns:    []int{4, 4},
		Reps:  1,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 1 {
		t.Fatalf("aliased grid has %d cells, want 1", len(c.Cells))
	}
	if c.Instances != 1 {
		t.Fatalf("aliased grid counts %d instances, want 1", c.Instances)
	}
}
