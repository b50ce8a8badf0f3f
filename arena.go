package leanconsensus

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/metrics"
)

// Arena backend names for ArenaConfig.Backend. Any name registered in the
// engine's model registry is accepted; Backends lists them all.
const (
	// BackendSched runs instances under the noisy scheduling model
	// (Section 3.1) — the default.
	BackendSched = "sched"
	// BackendHybrid runs instances under the Section 7 quantum/priority
	// uniprocessor model (at most 12 ops per process, Theorem 14).
	BackendHybrid = "hybrid"
	// BackendMsgNet runs instances over the emulated message-passing
	// network with ABD register emulation (Section 10 extension).
	BackendMsgNet = "msgnet"
)

// Backends returns the names of every registered execution model, sorted.
// All of them are valid ArenaConfig.Backend values.
func Backends() []string { return engine.Names() }

// ArenaConfig describes a consensus arena: a sharded service running many
// independent lean-consensus instances concurrently. Zero values select
// sensible defaults (8 shards, 2 workers per shard, 8 processes per
// instance, Exponential(1) noise, the sched backend).
type ArenaConfig struct {
	// Shards is the number of shards; keys are routed to shards by
	// consistent hashing, and each shard keeps its keys' counters and
	// TraceK captures.
	Shards int
	// Workers is the number of workers per shard: the arena runs
	// Shards × Workers workers, and any idle one serves the next
	// proposal, whatever its shard.
	Workers int
	// N is the number of processes in each consensus instance.
	N int
	// Distribution is the noise distribution driving each instance.
	Distribution Distribution
	// Backend selects the execution model: BackendSched, BackendHybrid,
	// or BackendMsgNet.
	Backend string
	// Adversary names an adversarial schedule from the engine's adversary
	// registry, optionally parameterized (e.g. "antileader:m=8"); empty
	// selects the zero schedule (pure noise). Backends that cannot run
	// the named schedule are rejected by NewArena with a typed error.
	Adversary string
	// Seed makes the whole arena reproducible: with a fixed seed, the
	// same keys and bits yield identical decisions and simulated metrics
	// regardless of goroutine scheduling and of Shards and Workers.
	Seed uint64
	// QueueDepth is the request buffer per shard: the arena's one queue
	// holds Shards × QueueDepth proposals, and submissions beyond that
	// block (backpressure).
	QueueDepth int
	// Telemetry enables the built-in metrics registry: decisions, rounds,
	// ops, errors, queue depth, and per-request latency are recorded on
	// per-worker striped counters (near-zero hot-path cost; the telemetry
	// dimension of BenchmarkArenaThroughput measures it at ≤1 extra
	// alloc/op). Render with Arena.WriteMetrics.
	Telemetry bool
	// TraceK arms the flight recorder: each shard keeps full event
	// timelines for its TraceK most interesting instances (violations
	// first, then the deepest rounds), retrievable with Arena.Traces.
	// Zero disables tracing at zero hot-path cost (the tracing dimension
	// of BenchmarkArenaThroughput holds the disabled path at the same
	// allocs/op as the plain one).
	TraceK int
}

// ArenaResult reports one served consensus instance.
type ArenaResult struct {
	// Key is the routing key the value was agreed under.
	Key string
	// Shard is the shard the key routes to (ShardFor).
	Shard int
	// Value is the agreed bit.
	Value int
	// FirstRound and LastRound are the instance's decision rounds.
	FirstRound, LastRound int
	// Ops is the instance's total operation count.
	Ops int64
	// SimTime is the instance's simulated duration.
	SimTime float64
	// Latency is the wall-clock service time (the only nondeterministic
	// field).
	Latency time.Duration
}

// ArenaStats is an aggregate snapshot of a running arena.
type ArenaStats struct {
	// Proposals, Decided0, Decided1, and Errors count requests served.
	Proposals int64
	Decided0  int64
	Decided1  int64
	Errors    int64
	// TotalOps sums instance operation counts.
	TotalOps int64
	// MeanFirstRound is the mean first-decision round.
	MeanFirstRound float64
	// Elapsed is the wall-clock time since the arena started.
	Elapsed time.Duration
	// Throughput is decisions per wall-clock second since start.
	Throughput float64
}

// Arena is a sharded concurrent consensus service. It is safe for
// concurrent use by any number of goroutines; see NewArena.
type Arena struct {
	inner *arena.Arena
	reg   *metrics.Registry
}

// NewArena starts an arena. Callers must Close it to release the worker
// pools.
func NewArena(cfg ArenaConfig) (*Arena, error) {
	model, err := engine.ByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	adv, err := engine.ResolveAdversary(cfg.Adversary)
	if err != nil {
		return nil, err
	}
	var reg *metrics.Registry
	var am *arena.Metrics
	if cfg.Telemetry {
		reg = metrics.NewRegistry()
		am = arena.NewMetrics(reg, "model", model.Name())
	}
	var tc *arena.TraceConfig
	if cfg.TraceK > 0 {
		tc = &arena.TraceConfig{PerShard: cfg.TraceK}
	}
	inner, err := arena.New(arena.Config{
		Shards:     cfg.Shards,
		Workers:    cfg.Workers,
		N:          cfg.N,
		Noise:      cfg.Distribution,
		Model:      model,
		Adversary:  adv,
		Seed:       cfg.Seed,
		QueueDepth: cfg.QueueDepth,
		Metrics:    am,
		Trace:      tc,
	})
	if err != nil {
		return nil, err
	}
	a := &Arena{inner: inner, reg: reg}
	if reg != nil {
		reg.GaugeFunc("leanconsensus_queue_depth"+metrics.Labels("model", model.Name()),
			"requests sitting in the arena's queue", func() int64 { return int64(inner.QueueDepth()) })
	}
	return a, nil
}

// WriteMetrics renders the arena's telemetry in the Prometheus text
// exposition format. It errors unless ArenaConfig.Telemetry was set.
func (a *Arena) WriteMetrics(w io.Writer) error {
	if a.reg == nil {
		return fmt.Errorf("leanconsensus: arena telemetry is disabled; set ArenaConfig.Telemetry")
	}
	return a.reg.WritePrometheus(w)
}

// QueueDepth reports the number of submitted proposals waiting in the
// arena's queue (admitted, not yet picked up by a worker).
func (a *Arena) QueueDepth() int { return a.inner.QueueDepth() }

// Propose submits one consensus proposal for key and waits for the
// decided value or for ctx. The proposing client's bit becomes process
// 0's input; the remaining inputs are drawn from the key's deterministic
// stream.
func (a *Arena) Propose(ctx context.Context, key string, bit int) (ArenaResult, error) {
	res, err := a.inner.Propose(ctx, key, bit)
	if err != nil {
		return ArenaResult{}, err
	}
	return ArenaResult{
		Key:        res.Key,
		Shard:      res.Shard,
		Value:      res.Value,
		FirstRound: res.FirstRound,
		LastRound:  res.LastRound,
		Ops:        res.Ops,
		SimTime:    res.SimTime,
		Latency:    res.Latency,
	}, nil
}

// ShardFor reports the shard a key routes to (stable across runs).
func (a *Arena) ShardFor(key string) int { return a.inner.ShardFor(key) }

// Traces returns the flight-recorder captures: the TraceK most
// interesting instances per shard, merged and ranked most interesting
// first (violations, then the deepest last rounds). It returns nil
// unless ArenaConfig.TraceK was set. Captures rank on simulated
// quantities only, so the same workload yields the same captures
// regardless of goroutine scheduling; call after the submissions of
// interest have completed (typically after Close). The result, events
// included, belongs to the caller.
func (a *Arena) Traces() []TraceInstance {
	captures := a.inner.Traces()
	for i := range captures {
		captures[i].Events = slices.Clone(captures[i].Events)
	}
	return captures
}

// Stats snapshots the arena's aggregate counters.
func (a *Arena) Stats() ArenaStats {
	st := a.inner.Stats()
	return ArenaStats{
		Proposals:      st.Totals.Proposals,
		Decided0:       st.Totals.Decided[0],
		Decided1:       st.Totals.Decided[1],
		Errors:         st.Totals.Errors,
		TotalOps:       st.Totals.Ops,
		MeanFirstRound: st.MeanFirstRound(),
		Elapsed:        st.Elapsed,
		Throughput:     st.Throughput(),
	}
}

// Close stops accepting proposals, drains in-flight instances, and waits
// for the workers to exit.
func (a *Arena) Close() error { return a.inner.Close() }

// String summarizes the snapshot.
func (s ArenaStats) String() string {
	return fmt.Sprintf("proposals=%d decided=[%d %d] errors=%d ops=%d mean-round=%.2f throughput=%.0f/s",
		s.Proposals, s.Decided0, s.Decided1, s.Errors, s.TotalOps, s.MeanFirstRound, s.Throughput)
}
