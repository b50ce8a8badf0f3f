package arena

import (
	"fmt"
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

	// keepers holds one keeper per shard on an arena's own copy of
	// Config.Trace, and is nil on every other TraceConfig.
	keepers []*traceKeeper
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

// traceKeeper keeps one shard's proposals' (or one traced cell's) top-K
// captures, sorted by traceRank. Every worker offers a shard's
// proposals to the shard's one keeper under its mutex, which also
// serves Arena.Traces' snapshot reads; the rank is strict and total, so
// the kept set does not depend on the order of the offers. A cell's own
// keeper (cell) names its captures "<key>,rep=<rep>"; a shard's names
// each proposal by its key.
type traceKeeper struct {
	mu   sync.Mutex
	k    int
	cell bool
	kept []trace.Instance
}

// keeper returns the keeper for a traced cell: on an arena's copy of
// Config.Trace, the keeper of the proposal's shard, else a fresh one for
// the cell.
func (tc *TraceConfig) keeper(shard int) *traceKeeper {
	if tc.keepers != nil {
		return tc.keepers[shard]
	}
	return &traceKeeper{k: tc.budget(), cell: true}
}

// consider offers repetition rep of a served cell whose spec carries the
// cell's key, N and the repetition's seed. The capture name is formatted
// only when the instance beats the cutoff under the plain key, and the
// recorder's events are copied only if it makes the cut.
func (t *traceKeeper) consider(model string, spec engine.Spec, rep int, res Result, rec *trace.Recorder) {
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
	if len(t.kept) == t.k && !traceRank(&cand, &t.kept[t.k-1]) {
		return
	}
	if t.cell {
		// The plain key is a proper prefix of every name this keeper
		// holds, so the check above let every tie through; the full
		// name settles it.
		cand.Key = fmt.Sprintf("%s,rep=%d", spec.Key, rep)
		if len(t.kept) == t.k && !traceRank(&cand, &t.kept[t.k-1]) {
			return
		}
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

// Traces returns the proposals (Submit/Propose) captured across all
// shards, the shards' keepers merged (Merge). It returns nil when
// tracing is not configured. A proposal's capture is ranked before its
// Result is delivered; the snapshot is consistent per keeper, and
// callers wanting the final capture set call it after Close or after
// their batch has drained.
func (a *Arena) Traces() []trace.Instance {
	tc := a.cfg.Trace
	if tc == nil {
		return nil
	}
	shards := make([][]trace.Instance, len(tc.keepers))
	for si, tk := range tc.keepers {
		shards[si] = tk.snapshot()
	}
	return tc.Merge(shards)
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
