// Cell-batched execution: the arena's bulk path, and the only way a
// caller with its own seeds puts work on an arena. Where Submit routes
// one *instance* per queue entry, RunCells routes one *cell* — a whole
// batch of repetitions of the same (model, inputs, noise, adversary, N)
// template, differing only in seed — to a single worker, which runs the
// entire batch as one tight loop over its pooled engine.Session
// (engine.RunBatch) and folds every repetition straight into the
// caller's CellSink. No per-repetition request materialization, queue
// hop, result-channel hop, or key formatting: steady-state repetitions
// allocate nothing and cost one model run each.
//
// A cell is self-contained, so any number of callers can share one
// arena without seeing each other's work: its outcomes are a pure
// function of the CellRequest (the arena seed plays no part), its
// counters come back on CellResult.Stats, its telemetry goes to its own
// Metrics bundle and its captures to CellResult.Traces. Which shard or
// worker serves a cell affects only wall-clock timing. A traced cell
// resets the worker's recorder before each repetition and offers it to
// a cell-private keeper as "<Key>,rep=<rep>" with seed Seed(rep);
// untraced cells pay one nil check per repetition. The latency histogram
// observes every repetition, from the cell's enqueue to that
// repetition's end, while the counters advance once per cell.
package arena

import (
	"context"
	"fmt"
	"time"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
)

// CellSink receives one repetition's result during cell execution. Add is
// called from the serving worker, in repetition order, with the cell's
// process count; it must not retain r.Err beyond the call if it wants the
// cell path to stay allocation-free. campaign.CellStats implements it.
type CellSink interface {
	Add(n int, r Result)
}

// CellRequest is one whole campaign cell: Reps repetitions of a single
// spec template, varying only the per-repetition seed. The request is
// served in one piece by one worker.
type CellRequest struct {
	// Model executes the repetitions; nil selects the arena's configured
	// model.
	Model engine.Model
	// Key identifies the cell in CellResult. Trace captures name
	// repetition rep "<Key>,rep=<rep>".
	Key string
	// N is the per-instance process count.
	N int
	// Inputs optionally fixes the input assignment; nil selects the
	// paper's Figure 1 half-and-half split, built once in the worker's
	// pooled buffer. A non-nil slice is borrowed until the CellResult is
	// delivered.
	Inputs []int
	// Noise is the per-instance noise distribution; nil is valid only for
	// models that declare engine.NoiseFree.
	Noise dist.Distribution
	// Adversary is the adversarial schedule, passed through verbatim.
	Adversary *engine.Adversary
	// Reps is the number of repetitions (at least 1).
	Reps int
	// Seed derives repetition rep's private seed; it is called from the
	// serving worker, in order.
	Seed func(rep int) uint64
	// Sink receives every repetition's result, in repetition order, from
	// the serving worker. The caller must not touch the sink until the
	// CellResult is delivered.
	Sink CellSink
	// Metrics, when non-nil, receives the cell's telemetry.
	Metrics *Metrics
	// Trace, when non-nil, records every repetition and keeps the
	// Trace.PerShard most interesting on CellResult.Traces (see
	// TraceConfig.Merge).
	Trace *TraceConfig
}

// CellResult reports one served cell.
type CellResult struct {
	// Key is the cell's identity.
	Key string
	// Shard is the shard that served the cell.
	Shard int
	// Reps is the number of repetitions executed.
	Reps int
	// Errors counts failed repetitions; FirstErr is the first failure in
	// repetition order (nil when Errors is 0). Per-repetition outcomes
	// live in the sink.
	Errors int64
	// FirstErr is the first repetition failure, if any.
	FirstErr error
	// Stats holds the cell's own counters.
	Stats ShardStats
	// Traces holds a traced cell's captures, most interesting first.
	Traces []trace.Instance
	// Latency is the wall-clock time from submission to cell completion —
	// the only nondeterministic field.
	Latency time.Duration
}

// submitCell validates and enqueues one cell on an explicit shard. It
// occupies one queue slot regardless of Reps, blocks only on a full
// shard queue, and returns ErrClosed after Close. Placement never
// influences outcomes (the cell carries its own seeds), so RunCells is
// free to place cells round-robin for load balance.
func (a *Arena) submitCell(cr CellRequest, shard int) (<-chan CellResult, error) {
	if cr.Reps < 1 {
		return nil, fmt.Errorf("arena: cell reps must be at least 1, got %d", cr.Reps)
	}
	if cr.N < 1 {
		return nil, fmt.Errorf("arena: cell N must be positive, got %d", cr.N)
	}
	if cr.Inputs != nil && len(cr.Inputs) != cr.N {
		return nil, fmt.Errorf("arena: cell has %d inputs for %d processes", len(cr.Inputs), cr.N)
	}
	if cr.Seed == nil {
		return nil, fmt.Errorf("arena: cell needs a Seed derivation")
	}
	if cr.Sink == nil {
		return nil, fmt.Errorf("arena: cell needs a Sink")
	}
	req := &request{
		key:      cr.Key,
		shard:    shard,
		enq:      time.Now(),
		cell:     &cr,
		cellDone: make(chan CellResult, 1),
	}
	if err := a.enqueue(req); err != nil {
		return nil, err
	}
	return req.cellDone, nil
}

// RunCells pipelines count cells through the arena with a bounded
// submission window and delivers results to fn in submission order —
// fn(i, result of gen(i)) — which is what lets a caller fold a
// deterministic aggregate while memory stays bounded by the window.
// gen(i) is called once per index, in order; fn runs on the caller's
// goroutine. Cells are placed round-robin across shards, carried on from
// the arena's previous call (placement cannot affect outcomes, so
// balanced placement is free throughput; consistent-hash routing would
// idle shards whenever a few keys collide). Any number of callers may
// run cells on one arena at once.
//
// Cancellation is clean by construction: on ctx expiry submission stops,
// every already-submitted cell runs to completion and is delivered to
// fn, and RunCells returns ctx.Err() with the arena fully drainable.
func (a *Arena) RunCells(ctx context.Context, count int, gen func(i int) CellRequest, fn func(i int, r CellResult)) error {
	if count <= 0 {
		return nil
	}
	// Cells are coarse units: a window of one extra cell per shard beyond
	// the in-service slots keeps every worker busy without parking long
	// queues of committed work behind slow cells.
	window := min(count, len(a.shards)*(a.cfg.Workers+1))
	chans := make([]<-chan CellResult, window)
	submitted, delivered := 0, 0
	deliver := func() {
		r := <-chans[delivered%window]
		fn(delivered, r)
		delivered++
	}
	var err error
	for i := 0; i < count; i++ {
		if e := ctx.Err(); e != nil {
			err = e
			break
		}
		done, e := a.submitCell(gen(i), int((a.next.Add(1)-1)%uint64(len(a.shards))))
		if e != nil {
			err = e
			break
		}
		chans[i%window] = done
		submitted++
		if submitted-delivered == window && i+1 < count {
			deliver()
		}
	}
	for delivered < submitted {
		deliver()
	}
	return err
}

// serveCell runs one whole cell on the serving worker, whose session
// the worker has armed for the cell's Trace: inputs built once, one spec
// reseeded in place, and every repetition folded into the sink, the
// cell's own counters and, when traced, its own keeper.
func (a *Arena) serveCell(s *shard, sess *engine.Session, req *request, idx int) CellResult {
	cr := req.cell
	model := cr.Model
	if model == nil {
		model = a.cfg.Model
	}
	inputs := cr.Inputs
	if inputs == nil {
		// The Figure 1 assignment, built once for the whole cell.
		inputs = sess.Inputs(cr.N)
		for i := range inputs {
			if i < cr.N/2 {
				inputs[i] = 0
			} else {
				inputs[i] = 1
			}
		}
	}
	spec := engine.Spec{
		Key:       cr.Key,
		Shard:     s.id,
		N:         cr.N,
		Inputs:    inputs,
		Noise:     cr.Noise,
		Adversary: cr.Adversary,
	}
	seed := cr.Seed
	rec := sess.Trace()
	var tk *traceKeeper
	var repSeed uint64
	if rec != nil {
		tk = &traceKeeper{k: cr.Trace.budget()}
		// RunBatch derives each repetition's seed immediately before
		// running it: the one point to reset the recorder and remember
		// the seed for the capture.
		seed = func(rep int) uint64 {
			rec.Reset()
			repSeed = cr.Seed(rep)
			return repSeed
		}
	}
	out := CellResult{Key: cr.Key, Shard: s.id, Reps: cr.Reps}
	wm := cr.Metrics.stripes(idx)
	sink := cr.Sink
	n := cr.N
	engine.RunBatch(model, spec, sess, cr.Reps, seed, func(rep int, r engine.Result, err error) {
		res := newResult(cr.Key, s.id, r, err)
		if err != nil && out.FirstErr == nil {
			out.FirstErr = err
		}
		out.Stats.add(res)
		sink.Add(n, res)
		if wm != nil {
			wm.latency.Observe(time.Since(req.enq).Seconds())
		}
		if tk != nil {
			key := fmt.Sprintf("%s,rep=%d", cr.Key, rep)
			tk.consider(model.Name(), engine.Spec{Key: key, N: n, Seed: repSeed}, res, rec)
		}
	})
	out.Latency = time.Since(req.enq)
	out.Errors = out.Stats.Errors
	if wm != nil {
		wm.recordCell(out.Stats)
	}
	if tk != nil {
		out.Traces = tk.kept
	}
	return out
}
