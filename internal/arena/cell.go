// Cell-batched execution: the arena's one kind of request. A cell is a
// whole batch of repetitions of the same (model, inputs, noise,
// adversary, N) template, differing only in seed; one worker runs the
// entire batch as one tight loop over its pooled engine.Session
// (engine.RunBatch) and folds every repetition straight into the cell's
// CellSink. No per-repetition request materialization, queue hop,
// result-channel hop, or key formatting: steady-state repetitions
// allocate nothing and cost one model run each. RunCells enqueues a
// caller's cells and Submit a proposal as a one-repetition cell, whose
// sink delivers the proposal's Result, on the arena's one queue, which
// every idle worker drains.
//
// A caller's cell is self-contained, so any number of callers can share
// one arena without seeing each other's work: its outcomes are a pure
// function of the CellRequest (the arena seed plays no part), its
// counters come back on CellResult.Stats, its telemetry goes to its own
// Metrics bundle and its captures to CellResult.Traces. Which worker
// serves a cell affects only wall-clock timing. A traced cell resets
// the worker's recorder before each repetition and offers it to the
// keeper its TraceConfig names: a cell-private one, which names the
// capture "<Key>,rep=<rep>" with seed Seed(rep), or, for a proposal, its
// shard's keeper on the arena's copy of Config.Trace, which names it
// Key. Untraced cells pay one nil check per repetition. The latency
// histogram observes every repetition, from the cell's enqueue to that
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

// submitCell validates and enqueues one cell. It occupies one queue slot
// regardless of Reps, blocks only on a full queue, and returns ErrClosed
// after Close.
func (a *Arena) submitCell(cr CellRequest) (<-chan CellResult, error) {
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
	req := &request{cell: cr, enq: time.Now(), done: make(chan CellResult, 1)}
	if err := a.enqueue(req); err != nil {
		return nil, err
	}
	return req.done, nil
}

// RunCells pipelines count cells through the arena with a bounded
// submission window and delivers results to fn in submission order —
// fn(i, result of gen(i)) — which is what lets a caller fold a
// deterministic aggregate while memory stays bounded by the window.
// gen(i) is called once per index, in order; fn runs on the caller's
// goroutine. Every cell joins the arena's one queue, and the next idle
// worker serves it: a cell carries its own seeds, so where it runs
// cannot affect its outcome. Any number of callers may run cells on one
// arena at once.
//
// Cancellation is clean by construction: on ctx expiry submission stops,
// every already-submitted cell runs to completion and is delivered to
// fn, and RunCells returns ctx.Err() with the arena fully drainable.
func (a *Arena) RunCells(ctx context.Context, count int, gen func(i int) CellRequest, fn func(i int, r CellResult)) error {
	if count <= 0 {
		return nil
	}
	// Cells are coarse units: a window of one extra cell per shard beyond
	// the workers keeps every worker busy without parking long queues of
	// committed work behind slow cells.
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
		done, e := a.submitCell(gen(i))
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
// reseeded in place, and every repetition offered to the cell's keeper,
// folded into the cell's own counters and handed to the sink. The
// telemetry counters go in before the sink sees the last repetition, so
// whoever holds a cell's last result, a proposal's in particular, also
// sees its counters. The CellResult goes out on done; a proposal has
// none, its sink having delivered its Result.
func (a *Arena) serveCell(sess *engine.Session, req *request, idx int) {
	cr := &req.cell
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
		tk = cr.Trace.keeper(req.shard)
		// RunBatch derives each repetition's seed immediately before
		// running it: the one point to reset the recorder and remember
		// the seed for the capture.
		seed = func(rep int) uint64 {
			rec.Reset()
			repSeed = cr.Seed(rep)
			return repSeed
		}
	}
	out := CellResult{Key: cr.Key, Reps: cr.Reps}
	var wm workerMetrics
	if cr.Metrics != nil {
		wm = cr.Metrics.stripes(idx)
	}
	engine.RunBatch(model, spec, sess, cr.Reps, seed, func(rep int, r engine.Result, err error) {
		res := Result{Key: cr.Key, Shard: req.shard, Value: r.Value, FirstRound: r.FirstRound,
			LastRound: r.LastRound, Ops: r.Ops, SimTime: r.SimTime}
		if err != nil {
			res = Result{Key: cr.Key, Shard: req.shard, Err: err}
			if out.FirstErr == nil {
				out.FirstErr = err
			}
		}
		out.Stats.add(res)
		if tk != nil {
			tk.consider(model.Name(), engine.Spec{Key: cr.Key, N: cr.N, Seed: repSeed}, rep, res, rec)
		}
		if cr.Metrics != nil {
			wm.latency.Observe(time.Since(req.enq).Seconds())
			if rep == cr.Reps-1 {
				wm.recordCell(out.Stats)
			}
		}
		cr.Sink.Add(cr.N, res)
	})
	if req.done == nil {
		return
	}
	out.Latency = time.Since(req.enq)
	out.Errors = out.Stats.Errors
	if tk != nil && tk.cell {
		out.Traces = tk.kept
	}
	req.done <- out
}
