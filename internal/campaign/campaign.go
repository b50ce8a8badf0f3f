// Package campaign turns the repository's experiment harness inside out:
// instead of one hand-written Go file per parameter sweep
// (internal/harness's fig1.go, ablation.go, ...), a campaign is a
// declarative spec — a cartesian grid over registered execution models,
// noise distributions, process counts, and seeds, with a fixed number of
// repetitions per grid cell — that compiles to one arena cell
// (arena.CellRequest) per grid cell and executes through the sharded
// arena's worker pools (a private one, or a shared one with RunOn),
// zero-allocation in steady state.
//
// Three properties make campaigns production-shaped:
//
//   - Determinism. Every repetition's seed is derived from the cell seed
//     with the same mix the harness's Figure 1 reproduction uses
//     (InstanceSeed), and inputs follow the paper's half-and-half
//     assignment, so a campaign cell reproduces the corresponding harness
//     experiment number for number. arena.RunCells hands whole cells to
//     workers, which fold repetitions in repetition order as they run
//     them, and delivers completions in grid order, so reports are
//     byte-identical across runs, pool shapes, and interrupt/resume
//     boundaries.
//
//   - Streaming aggregation. Each cell folds into a fixed-size
//     stats.Summary pair (rounds, ops per process) plus integer counters;
//     memory is O(cells), never O(instances), so a million-instance
//     campaign runs in a few megabytes.
//
//   - Checkpoint/resume. With a checkpoint path configured, the runner
//     atomically rewrites a JSON manifest after every completed cell,
//     keyed by a content hash of the normalized spec. An interrupted
//     campaign resumes without rerunning finished cells, and the resumed
//     report is byte-identical to an uninterrupted one.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/stats"
	"leanconsensus/internal/trace"
	"leanconsensus/internal/xrand"
)

// Spec is the declarative form of a campaign: run Reps independent
// lean-consensus instances for every cell of the cartesian grid
// Models × Dists × Adversaries × Ns × Seeds. Empty lists select defaults
// (the default model, exponential noise, the zero adversary, the
// wire-default N, seed 1). It is the JSON contract of POST /v1/campaigns
// and of cmd/leansweep spec files.
type Spec struct {
	// Name labels the campaign in reports and manifests.
	Name string `json:"name,omitempty"`
	// Models are execution-model names resolved through the engine
	// registry (empty selects the default model). A model that declares
	// engine.NoiseFree collapses the Dists axis to the single
	// pseudo-distribution "none": noise cannot affect it, so one cell per
	// (n, seed) is run instead of one per distribution.
	Models []string `json:"models,omitempty"`
	// Dists are noise-distribution names resolved through the dist
	// registry (empty selects exponential).
	Dists []string `json:"dists,omitempty"`
	// Adversaries are adversarial-schedule names resolved through the
	// engine's adversary registry, optionally parameterized
	// ("antileader:m=8"); empty selects the zero schedule. A model
	// outside the adversary axis (msgnet) collapses this axis to the
	// single pseudo-schedule "none", exactly as noise-free models
	// collapse Dists; a model that cannot run a named schedule fails
	// resolution with the engine's typed error rather than running a
	// silently different one.
	Adversaries []string `json:"adversaries,omitempty"`
	// Ns are process counts per instance (empty selects the wire default;
	// a 0 entry also selects the wire default, mirroring engine.JobSpec).
	Ns []int `json:"ns,omitempty"`
	// Seeds are the cell seeds (empty selects seed 1). Every repetition's
	// instance seed is derived with InstanceSeed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Reps is the number of repetitions (independent instances) per cell.
	Reps int `json:"reps"`
}

// normalized returns the spec with defaults applied and registry names
// canonicalized — the form that is hashed, checkpointed, and echoed in
// reports. Unknown names fail here with the registry's error.
func (s Spec) normalized() (Spec, error) {
	out := s
	if len(out.Models) == 0 {
		out.Models = []string{engine.DefaultModel}
	}
	if len(out.Dists) == 0 {
		out.Dists = []string{"exponential"}
	}
	if len(out.Adversaries) == 0 {
		out.Adversaries = []string{engine.DefaultAdversary}
	}
	if len(out.Ns) == 0 {
		out.Ns = []int{engine.DefaultWireN}
	}
	if len(out.Seeds) == 0 {
		out.Seeds = []uint64{1}
	}
	models := make([]string, len(out.Models))
	for i, m := range out.Models {
		resolved, err := engine.ByName(m)
		if err != nil {
			return Spec{}, err
		}
		models[i] = resolved.Name()
	}
	out.Models = models
	dists := make([]string, len(out.Dists))
	for i, d := range out.Dists {
		if d == "none" {
			dists[i] = d
			continue
		}
		name, ok := dist.ResolveName(d)
		if !ok {
			_, err := dist.ByName(d) // the registry's canonical error
			if err == nil {
				err = fmt.Errorf("campaign: unknown distribution %q", d)
			}
			return Spec{}, err
		}
		dists[i] = name
	}
	out.Dists = dists
	advs := make([]string, len(out.Adversaries))
	for i, a := range out.Adversaries {
		resolved, err := engine.ResolveAdversary(a)
		if err != nil {
			return Spec{}, err
		}
		// The canonical form spells every parameter out
		// ("antileader" → "antileader:m=1"), so parameter-equivalent
		// spellings hash, checkpoint, and dedupe as one.
		advs[i] = resolved.Name()
	}
	out.Adversaries = advs
	ns := make([]int, len(out.Ns))
	for i, n := range out.Ns {
		if n == 0 {
			n = engine.DefaultWireN
		}
		ns[i] = n
	}
	out.Ns = ns
	return out, nil
}

// Cell is one resolved grid point: a validated engine.Job whose Instances
// field carries the repetition count.
type Cell struct {
	// Index is the cell's position in grid order (Models outer, then
	// Dists, Adversaries, Ns, Seeds) — the order reports list cells in.
	Index int
	// Key is the cell's canonical identity (Job.Key), e.g.
	// "model=sched,dist=exponential,adv=zero,n=8,seed=1". Checkpoint
	// manifests key completed cells by it.
	Key string
	// Job is the resolved model, noise, N, seed, and repetition count.
	Job engine.Job
}

// Campaign is a resolved, validated Spec: every cell's names looked up,
// every wire limit enforced, grid order fixed. Build one with
// Spec.Resolve or DecodeSpec.
type Campaign struct {
	// Spec is the normalized spec (defaults applied, names canonical).
	Spec Spec
	// Hash is the hex SHA-256 of the normalized spec's canonical JSON; it
	// binds checkpoints and reports to exactly this grid.
	Hash string
	// Cells holds the grid in deterministic order.
	Cells []Cell
	// Instances is the total repetition count across cells — what an
	// admission controller reserves for the whole campaign.
	Instances int64
}

// Resolve validates the spec against the registries and wire limits and
// expands the grid. Every error is a client error (HTTP 400); oversized
// grids come back as a typed *LimitError before any cell is
// materialized, so a hostile spec cannot allocate the grid it names.
func (s Spec) Resolve() (*Campaign, error) {
	norm, err := s.normalized()
	if err != nil {
		return nil, err
	}
	if norm.Reps < 1 {
		return nil, fmt.Errorf("campaign: reps must be at least 1, got %d", norm.Reps)
	}
	// Grid-size gate before materialization. Each factor multiplies a
	// value already capped at MaxWireCells, so the product cannot
	// overflow no matter how long the lists are.
	cells := int64(1)
	for _, axis := range []int{len(norm.Models), len(norm.Dists), len(norm.Adversaries), len(norm.Ns), len(norm.Seeds)} {
		cells *= int64(axis)
		if cells > MaxWireCells {
			return nil, &LimitError{What: "grid cells", Got: cells, Max: MaxWireCells}
		}
	}
	if int64(norm.Reps) > MaxWireInstances {
		return nil, &LimitError{What: "reps per cell", Got: int64(norm.Reps), Max: MaxWireInstances}
	}
	if total := cells * int64(norm.Reps); total > MaxWireInstances {
		return nil, &LimitError{What: "total instances", Got: total, Max: MaxWireInstances}
	}

	c := &Campaign{Spec: norm}
	seen := make(map[string]bool)
	for _, mname := range norm.Models {
		model, err := engine.ByName(mname)
		if err != nil {
			return nil, err
		}
		dists := norm.Dists
		if engine.IgnoresNoise(model) {
			// Noise cannot affect this model: one cell per (n, seed),
			// under the canonical "none" label, instead of a spurious
			// per-distribution axis.
			dists = []string{"none"}
		}
		advs := norm.Adversaries
		if _, ok := model.(engine.Adversarial); !ok {
			// The model is outside the adversary axis: collapse to the
			// "none" label, like the dist axis. (An adversarial model
			// paired with a schedule it has no face for is different —
			// that fails the cell's Resolve below with the typed error.)
			advs = []string{engine.NoAdversary}
		}
		for _, dname := range dists {
			for _, aname := range advs {
				for _, n := range norm.Ns {
					for _, seed := range norm.Seeds {
						job, err := engine.JobSpec{
							Model: mname, Dist: dname, Adversary: aname, N: n, Seed: seed, Instances: norm.Reps,
						}.Resolve()
						if err != nil {
							return nil, fmt.Errorf("campaign: cell (model=%s dist=%s adv=%s n=%d seed=%d): %w",
								mname, dname, aname, n, seed, err)
						}
						key := job.Key()
						if seen[key] {
							// Aliases or duplicate axis entries collapse to
							// one cell; first occurrence wins.
							continue
						}
						seen[key] = true
						c.Cells = append(c.Cells, Cell{Index: len(c.Cells), Key: key, Job: job})
						c.Instances += int64(norm.Reps)
					}
				}
			}
		}
	}
	c.Hash = specHash(norm)
	return c, nil
}

// InstanceSeed derives the private seed of repetition rep of a cell with
// the given cell seed and process count. The derivation is exactly the
// one internal/harness's Figure 1 reproduction uses per trial, which is
// why a campaign cell over the same (seed, n) range reproduces the
// harness numbers bit for bit. Sharing the stream across models and
// distributions is deliberate: common random numbers across curves, the
// paper's own simulation setup.
func InstanceSeed(cellSeed uint64, n, rep int) uint64 {
	return xrand.Mix(cellSeed, 0xf1601, uint64(n), uint64(rep))
}

// CellStats is one cell's streaming aggregate: fixed-size whatever the
// repetition count, mergeable across checkpoint boundaries, and folded in
// repetition order so every statistic is a pure function of the cell.
type CellStats struct {
	// Reps counts folded repetitions (including failed ones).
	Reps int64 `json:"reps"`
	// Decided counts decisions by value.
	Decided [2]int64 `json:"decided"`
	// Errors counts failed instances; AgreementViolations and Undecided
	// classify them (engine.ErrDisagreement, engine.ErrUndecided).
	Errors              int64 `json:"errors"`
	AgreementViolations int64 `json:"agreementViolations"`
	Undecided           int64 `json:"undecided"`
	// ValidityViolations counts decided instances whose value was no
	// process's input. Under the half-and-half assignment both values are
	// proposed whenever n > 1, so the check bites only the unanimous n=1
	// cell — but it is exactly the paper's validity condition.
	ValidityViolations int64 `json:"validityViolations"`
	// Ops sums instance operation counts; SimTime sums simulated
	// durations.
	Ops     int64   `json:"ops"`
	SimTime float64 `json:"simTime"`
	// MaxLastRound is the largest last-decision round observed.
	MaxLastRound int `json:"maxLastRound"`
	// Rounds summarizes first-decision rounds of decided instances;
	// OpsPerProc summarizes per-process operation counts — the two
	// quantities of the paper's Figure 1.
	Rounds     stats.Summary `json:"rounds"`
	OpsPerProc stats.Summary `json:"opsPerProc"`
}

// Add folds one repetition's result into the cell aggregate. n is the
// cell's process count. It allocates nothing — the property
// BenchmarkCampaignAggregate pins down.
func (c *CellStats) Add(n int, r arena.Result) {
	c.Reps++
	if r.Err != nil {
		c.Errors++
		if errors.Is(r.Err, engine.ErrDisagreement) {
			c.AgreementViolations++
		}
		if errors.Is(r.Err, engine.ErrUndecided) {
			c.Undecided++
		}
		return
	}
	c.Decided[r.Value]++
	if n == 1 && r.Value != 1 {
		// HalfInputs(1) proposes only 1: deciding 0 would violate
		// validity.
		c.ValidityViolations++
	}
	c.Ops += r.Ops
	c.SimTime += r.SimTime
	if r.LastRound > c.MaxLastRound {
		c.MaxLastRound = r.LastRound
	}
	c.Rounds.Add(float64(r.FirstRound))
	c.OpsPerProc.Add(float64(r.Ops) / float64(n))
}

// Config carries the runtime knobs of Campaign.Run — everything that is
// not part of the campaign's identity (and therefore not hashed).
type Config struct {
	// Shards and Workers set the shape of Run's private arena (defaults
	// arena.DefaultShards / arena.DefaultWorkers). The shape affects only
	// wall-clock speed, never report bytes.
	Shards, Workers int
	// Checkpoint is the manifest path; empty disables checkpointing. The
	// manifest is atomically rewritten after every completed cell.
	Checkpoint string
	// Resume permits loading an existing manifest at Checkpoint (whose
	// spec hash must match) and skipping its completed cells. Without
	// Resume an existing manifest is an error, so a stale path cannot be
	// silently clobbered.
	Resume bool
	// Metrics, when non-nil, receives per-cell telemetry (see NewMetrics).
	Metrics *Metrics
	// OnCell, when non-nil, is called serially after each cell completes
	// (including, once at startup, for cells restored from a checkpoint).
	OnCell func(Progress)
	// Trace, when non-nil, arms the flight recorder on every cell run and
	// attaches the capture set to Report.Trace (see arena.TraceConfig).
	// Repetition rep of a cell is captured as "<cell key>,rep=<rep>"; the
	// per-shard budget ranks the repetitions of the cells of each logical
	// shard (the k-th cell run mod the shard count). Captures cover only
	// cells executed by this process — cells restored from a checkpoint
	// were traced, if at all, by the run that executed them.
	Trace *arena.TraceConfig
	// Journal, when non-nil, receives the campaign's lifecycle events —
	// campaign.cell.done per completed cell (carrying the cell's full
	// workload axes), campaign.checkpoint per manifest write,
	// campaign.resume on checkpoint restore, and arena.drain counting the
	// repetitions run once the cells drain — all chained to Correlation.
	// Journal content never feeds reports, checkpoints, or resume
	// decisions, so journaled runs stay byte-identical to silent ones.
	Journal *obslog.Journal
	// Correlation is the ID the campaign's journal events chain to (the
	// server's campaign ID; "" for an uncorrelated run, e.g. leansweep).
	Correlation string
	// AxisMetrics, when non-nil, additionally attributes each completed
	// cell to its workload axes: one Metrics bundle per
	// model × dist × adversary combination, resolved lazily on the
	// cell-completion cold path (see NewAxisMetrics). Independent of
	// Metrics, which stays the unlabeled campaign-wide rollup.
	AxisMetrics *AxisMetrics
}

// Progress is a campaign's position, delivered to Config.OnCell.
type Progress struct {
	// CellKey is the cell that just completed ("" for the initial
	// restored-checkpoint notification).
	CellKey string
	// CellsDone / CellsTotal count completed cells; InstancesDone /
	// InstancesTotal count repetitions.
	CellsDone, CellsTotal         int
	InstancesDone, InstancesTotal int64
	// CellLatency is the just-completed cell's wall-clock execution time
	// (0 for the restored-checkpoint notification). It is the only
	// nondeterministic Progress field; consumers use it for throughput
	// and ETA displays, never for anything that feeds a report.
	CellLatency time.Duration
}

// Run resolves the spec and executes the campaign; see Campaign.Run.
func Run(ctx context.Context, spec Spec, cfg Config) (*Report, error) {
	c, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, cfg)
}

// Run is RunOn on a private arena of cfg's shape.
func (c *Campaign) Run(ctx context.Context, cfg Config) (*Report, error) {
	a, err := arena.New(arena.Config{Shards: cfg.Shards, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return c.RunOn(ctx, a, cfg)
}

// RunOn executes every cell of the campaign on arena a, which other
// callers may share, and returns the deterministic report. Each pending
// cell is one
// arena.CellRequest whose sink is the cell's CellStats: a worker runs the
// cell's repetitions as one tight loop over its pooled session and folds
// them in repetition order. Cells pipeline across shards concurrently,
// but completions — checkpoints, metrics, OnCell — are delivered in grid
// order. On ctx cancellation Run stops cleanly — in-flight cells drain
// unreported, the manifest keeps every completed cell — and returns
// ctx.Err(); resuming later re-executes only the missing cells.
func (c *Campaign) RunOn(ctx context.Context, a *arena.Arena, cfg Config) (*Report, error) {
	done := make(map[string]*CellStats)
	if cfg.Checkpoint != "" {
		loaded, err := loadManifest(cfg.Checkpoint, c, cfg.Resume)
		if err != nil {
			return nil, err
		}
		done = loaded
	}

	results := make([]*CellStats, len(c.Cells))
	cellsDone := 0
	instancesDone := int64(0)
	var pending []int
	for i := range c.Cells {
		if cs, ok := done[c.Cells[i].Key]; ok {
			results[i] = cs
			cellsDone++
			instancesDone += cs.Reps
		} else {
			pending = append(pending, i)
		}
	}
	if cellsDone > 0 {
		cfg.Journal.Append(obslog.KindResume, cfg.Correlation, "",
			obslog.Labels{Count: int64(cellsDone), Detail: cfg.Checkpoint})
		if cfg.OnCell != nil {
			cfg.OnCell(Progress{
				CellsDone: cellsDone, CellsTotal: len(c.Cells),
				InstancesDone: instancesDone, InstancesTotal: c.Instances,
			})
		}
	}

	// complete folds one executed cell into the campaign state, in grid
	// order. latency is the cell's wall-clock execution time —
	// observability only; nothing deterministic depends on it.
	complete := func(i int, cs *CellStats, latency time.Duration) error {
		results[i] = cs
		cellsDone++
		instancesDone += cs.Reps
		done[c.Cells[i].Key] = cs
		job := &c.Cells[i].Job
		if cfg.Metrics != nil {
			cfg.Metrics.record(cs, latency)
		}
		if cfg.AxisMetrics != nil {
			cfg.AxisMetrics.For(job.ModelName, job.DistName, job.AdvName).record(cs, latency)
		}
		cfg.Journal.Append(obslog.KindCellDone, c.Cells[i].Key, cfg.Correlation, obslog.Labels{
			Model: job.ModelName, Dist: job.DistName, Adversary: job.AdvName,
			N: job.N, Count: cs.Reps,
		})
		if cfg.Checkpoint != "" {
			if err := saveManifest(cfg.Checkpoint, c, results); err != nil {
				return err
			}
			cfg.Journal.Append(obslog.KindCheckpoint, cfg.Correlation, "",
				obslog.Labels{Count: int64(cellsDone), Detail: cfg.Checkpoint})
		}
		if cfg.OnCell != nil {
			cfg.OnCell(Progress{
				CellKey:   c.Cells[i].Key,
				CellsDone: cellsDone, CellsTotal: len(c.Cells),
				InstancesDone: instancesDone, InstancesTotal: c.Instances,
				CellLatency: latency,
			})
		}
		return nil
	}

	sinks := make([]*CellStats, len(pending))
	captures := make([][]trace.Instance, a.Shards()) // by logical shard
	var ran int64
	// A completion failure (checkpoint write) cancels submission; cells
	// already in flight drain and their sinks simply go unreported.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var completeErr error
	err := a.RunCells(runCtx, len(pending),
		func(k int) arena.CellRequest {
			cell := &c.Cells[pending[k]]
			job := cell.Job
			sinks[k] = &CellStats{}
			return arena.CellRequest{
				Model:     job.Model,
				Key:       cell.Key,
				N:         job.N,
				Noise:     job.Noise,
				Adversary: job.Adversary,
				Reps:      job.Instances,
				Seed:      func(rep int) uint64 { return InstanceSeed(job.Seed, job.N, rep) },
				Sink:      sinks[k],
				Trace:     cfg.Trace,
			}
		},
		func(k int, r arena.CellResult) {
			ran += r.Stats.Proposals
			captures[k%len(captures)] = append(captures[k%len(captures)], r.Traces...)
			if completeErr == nil {
				// Submission races ahead of completion, so by the time a
				// caller cancels (often from OnCell) every cell may
				// already be in flight. A cancelled campaign completes no
				// further cells: in-flight work drains unreported and
				// resume re-executes it.
				completeErr = ctx.Err()
			}
			if completeErr != nil {
				return
			}
			if err := complete(pending[k], sinks[k], r.Latency); err != nil {
				completeErr = err
				cancel()
			}
		})
	cfg.Journal.Append(obslog.KindArenaDrain, "", cfg.Correlation, obslog.Labels{Count: ran})
	if completeErr != nil {
		return nil, completeErr
	}
	if err != nil {
		return nil, err
	}
	rep := c.buildReport(results)
	if cfg.Trace != nil {
		rep.Trace = cfg.Trace.Merge(captures)
	}
	return rep, nil
}
