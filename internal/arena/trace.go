package arena

import (
	"sort"
	"sync"

	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
)

// DefaultTracePerShard is the per-shard capture budget TraceConfig
// applies when PerShard is zero.
const DefaultTracePerShard = 2

// TraceConfig arms a flight recorder, the arena's (Config.Trace) or a
// cell's (CellRequest.Trace): the serving worker runs with a pooled
// trace.Recorder of trace.DefaultCapacity events on its session
// (instances longer than the ring keep their newest window and report
// the overwritten count as Dropped), and each shard (or cell) keeps the
// PerShard most interesting instances — violating instances first
// (errors are the paper's broken guarantees), then the slowest by
// decision round. "Slowest" is deliberately a deterministic quantity
// (LastRound, then Ops, then Key), never wall-clock latency: which
// instances a run captures is a pure function of the served multiset,
// so traced reports replay byte-identically just like untraced ones.
type TraceConfig struct {
	// PerShard is the capture budget per shard (default
	// DefaultTracePerShard).
	PerShard int
}

// budget returns the effective per-shard capture budget.
func (tc *TraceConfig) budget() int {
	if tc.PerShard <= 0 {
		return DefaultTracePerShard
	}
	return tc.PerShard
}

// traceRank orders captured instances from most to least interesting:
// violating first, then largest last-decision round, then most
// operations, then key (ascending) as the deterministic tie-break. The
// order is strict and total over distinct keys, which is what makes the
// kept set independent of worker scheduling.
func traceRank(a, b *trace.Instance) bool {
	if (a.Err != "") != (b.Err != "") {
		return a.Err != ""
	}
	if a.LastRound != b.LastRound {
		return a.LastRound > b.LastRound
	}
	if a.Ops != b.Ops {
		return a.Ops > b.Ops
	}
	return a.Key < b.Key
}

// traceKeeper keeps one worker's (or one traced cell's) top-K captures,
// sorted by traceRank. Each worker owns one keeper for derived instances
// (double-buffered ranking): the serving path ranks and copies events
// into worker-private state, so capture never serializes sibling
// workers the way a shared per-shard set would. The mutex exists only
// for Arena.Traces' snapshot reads — the worker itself never contends on
// it. Merge turns keepers' top-Ks into the shard-global ranking.
type traceKeeper struct {
	mu   sync.Mutex
	k    int
	kept []trace.Instance
}

// consider offers one served instance; the recorder's events are copied
// only if the instance makes the cut.
func (t *traceKeeper) consider(model string, spec engine.Spec, res Result, rec *trace.Recorder) {
	cand := trace.Instance{
		Key: spec.Key, Model: model, N: spec.N, Seed: spec.Seed,
		FirstRound: res.FirstRound, LastRound: res.LastRound,
		Ops: res.Ops, SimTime: res.SimTime, Dropped: rec.Dropped(),
	}
	if res.Err != nil {
		cand.Err = res.Err.Error()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.kept) == t.k && !traceRank(&cand, &t.kept[len(t.kept)-1]) {
		return
	}
	cand.Events = rec.Events()
	pos := sort.Search(len(t.kept), func(i int) bool { return traceRank(&cand, &t.kept[i]) })
	if len(t.kept) < t.k {
		t.kept = append(t.kept, trace.Instance{})
	}
	copy(t.kept[pos+1:], t.kept[pos:])
	t.kept[pos] = cand
}

// snapshot copies the kept instances.
func (t *traceKeeper) snapshot() []trace.Instance {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]trace.Instance(nil), t.kept...)
}

// Traces returns the derived (Submit/Propose) instances captured across
// all shards, the workers' keepers merged per shard (Merge). It returns
// nil when tracing is not configured. The snapshot is consistent per
// keeper; callers wanting the final capture set call it after Close or
// after their batch has drained.
func (a *Arena) Traces() []trace.Instance {
	if a.cfg.Trace == nil {
		return nil
	}
	shards := make([][]trace.Instance, len(a.shards))
	for idx, tk := range a.keepers {
		si := idx / a.cfg.Workers
		shards[si] = append(shards[si], tk.snapshot()...)
	}
	return a.cfg.Trace.Merge(shards)
}

// Merge ranks captures grouped by shard into one capture set: each
// group is ranked in place and cut to the PerShard budget, then the
// survivors are ranked together, most interesting first. An instance in
// a group's true top-K survives the top-K cut of whichever keeper saw
// it, so the result is byte-identical to ranking each shard in one
// place. Cell callers group CellResult.Traces by logical shard, cell
// index mod the shard count, so the capture set does not depend on
// where the cells ran.
func (tc *TraceConfig) Merge(shards [][]trace.Instance) []trace.Instance {
	perShard := tc.budget()
	var all []trace.Instance
	for _, merged := range shards {
		sort.SliceStable(merged, func(i, j int) bool { return traceRank(&merged[i], &merged[j]) })
		all = append(all, merged[:min(len(merged), perShard)]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return traceRank(&all[i], &all[j]) })
	return all
}
