package leanconsensus

import (
	"context"

	"leanconsensus/internal/campaign"
)

// CampaignSpec is the declarative form of an experiment campaign: run
// Reps independent lean-consensus instances for every cell of the
// cartesian grid Models × Dists × Ns × Seeds. Empty lists select
// defaults (the default model, exponential noise, n=8, seed 1). Names
// resolve through the same registries as every other entry point, so a
// newly registered model or distribution is immediately sweepable.
//
// Campaigns are the paper's experiments turned into configuration: the
// Figure 1 reproduction, for example, is a six-distribution grid (see
// cmd/leansweep's built-in "fig1" spec) rather than a bespoke program.
type CampaignSpec struct {
	// Name labels the campaign in reports and checkpoint manifests.
	Name string `json:"name,omitempty"`
	// Models are execution-model names (see Backends). A model that
	// ignores noise (hybrid) collapses the Dists axis to a single "none"
	// cell per (n, seed).
	Models []string `json:"models,omitempty"`
	// Dists are noise-distribution names (see the dist registry).
	Dists []string `json:"dists,omitempty"`
	// Adversaries are adversarial-schedule names, optionally
	// parameterized ("antileader:m=8"); empty selects the zero schedule.
	// A model outside the adversary axis (msgnet) collapses the axis to a
	// single "none" cell, exactly as noise-free models collapse Dists.
	Adversaries []string `json:"adversaries,omitempty"`
	// Ns are process counts per instance.
	Ns []int `json:"ns,omitempty"`
	// Seeds are cell seeds; each repetition's instance seed derives from
	// its cell seed with the harness's Figure 1 per-trial mix, so
	// campaign numbers reproduce harness numbers for the same seeds.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Reps is the repetition count per cell.
	Reps int `json:"reps"`
	// Correlation, when non-empty, is sent as the X-Lean-Correlation
	// header on Client.SubmitCampaign: the service stamps it as the
	// Parent of the campaign's root journal events, chaining this
	// submission into a correlation tree that spans processes. It is
	// never part of the spec body (or the spec hash) — two submissions
	// differing only in Correlation are the same campaign.
	Correlation string `json:"-"`
	// Tenant, when non-empty, is sent as the X-Lean-Tenant header on
	// Client.SubmitCampaign: the service admits the grid under that
	// tenant's fair share and labels its journal events. Like
	// Correlation, it is transport metadata — never part of the spec body
	// or the spec hash.
	Tenant string `json:"-"`
}

// The campaign layer's own types, shared with the service's reports.
type (
	// CampaignProgress reports a campaign's position to
	// Campaign.OnProgress. CellLatency is its only nondeterministic field.
	CampaignProgress = campaign.Progress
	// CampaignCell is one completed grid cell's statistics. Every field is
	// deterministic: a pure function of (model, dist, adversary, n, seed,
	// reps).
	CampaignCell = campaign.CellReport
	// CampaignReport is a completed campaign: one row per grid cell, in
	// grid order, with the normalized spec it was expanded from. Reports
	// are byte-identical across runs, pool shapes, and interrupt/resume
	// boundaries; CSV and JSON render them.
	CampaignReport = campaign.Report
)

// Campaign is a configured experiment campaign. Fill the spec and the
// runtime knobs, then Run it; the zero values of everything but Spec
// select defaults.
type Campaign struct {
	// Spec is the grid to sweep.
	Spec CampaignSpec
	// Shards and Workers shape the arena worker pool (defaults 8 and 2).
	// The shape changes wall-clock speed only, never report bytes.
	Shards, Workers int
	// Checkpoint, when non-empty, is a manifest path that is atomically
	// rewritten after every completed cell.
	Checkpoint string
	// Resume permits continuing an existing manifest at Checkpoint (its
	// spec hash must match). Without Resume an existing manifest is an
	// error.
	Resume bool
	// OnProgress, when non-nil, is called serially after each completed
	// cell.
	OnProgress func(CampaignProgress)
}

// Run executes the campaign and returns its deterministic report. On ctx
// cancellation it stops cleanly after draining in-flight instances —
// completed cells stay in the checkpoint — and returns ctx.Err().
func (c *Campaign) Run(ctx context.Context) (*CampaignReport, error) {
	return campaign.Run(ctx, specToInternal(c.Spec), campaign.Config{
		Shards:     c.Shards,
		Workers:    c.Workers,
		Checkpoint: c.Checkpoint,
		Resume:     c.Resume,
		OnCell:     c.OnProgress,
	})
}

// specToInternal converts the public spec to the internal one.
// Correlation is transport metadata, not part of the grid, so it does
// not cross this boundary.
func specToInternal(s CampaignSpec) campaign.Spec {
	return campaign.Spec{
		Name:        s.Name,
		Models:      s.Models,
		Dists:       s.Dists,
		Adversaries: s.Adversaries,
		Ns:          s.Ns,
		Seeds:       s.Seeds,
		Reps:        s.Reps,
	}
}
