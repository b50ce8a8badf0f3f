// Package arena is a sharded, worker-pool-backed consensus service: it
// runs many independent lean-consensus instances concurrently and serves
// them request-style. A client submits Propose(key, bit) requests; the
// arena routes each key to a shard with a consistent hash, executes the
// instance on one of the shard's workers under a pluggable execution model
// (engine.Model), and returns the decided value together with aggregate
// latency and throughput statistics. Each worker owns one engine.Session,
// so steady-state serving reuses the simulation buffers instead of
// reallocating them per instance.
//
// The design leans on the paper's central observation in reverse: noisy
// scheduling makes each individual instance terminate in Θ(log n)
// expected rounds, so thousands of mutually independent instances can be
// packed onto a small worker pool with predictable per-request cost.
//
// Determinism: every instance's outcome is a pure function of the arena
// seed, the key, the proposed bit, N, the noise, the model, and the
// adversary. Each instance's private seed mixes the arena seed with the
// key's stable 64-bit hash, so the pool shape (Shards, Workers) decides
// only where and when an instance runs, never what it decides: whole-arena
// runs replay exactly under a fixed seed on any pool shape — including
// under `go test -race`. Cells (SubmitCell) carry their own seeds and do
// not read the arena seed at all.
package arena

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/trace"
	"leanconsensus/internal/xrand"
)

// Defaults applied by New.
const (
	DefaultShards  = 8
	DefaultWorkers = 2
	DefaultN       = 8
	// DefaultQueueDepth is the per-shard request buffer; submissions beyond
	// it apply backpressure by blocking.
	DefaultQueueDepth = 128
)

// Errors returned by the arena.
var (
	// ErrClosed is returned by Submit and Propose after Close.
	ErrClosed = errors.New("arena: closed")
)

// Config describes an arena.
type Config struct {
	// Shards is the number of independent shards (default DefaultShards).
	Shards int
	// Workers is the worker-pool size per shard (default DefaultWorkers).
	Workers int
	// N is the number of processes in each consensus instance (default
	// DefaultN).
	N int
	// Noise is the interarrival noise distribution driving each instance
	// (default Exponential(1), the paper's Figure 1 baseline).
	Noise dist.Distribution
	// Model selects the execution model (default the engine's "sched"
	// model; see engine.ByName for resolution from a name).
	Model engine.Model
	// Adversary is the adversarial schedule armed for every derived
	// (Submit/Propose) instance; nil selects the zero schedule. New
	// rejects a schedule the model cannot run with the engine's typed
	// error. Cells carry their own via CellRequest.Adversary.
	Adversary *engine.Adversary
	// Seed makes the whole arena reproducible: same seed, same keys, same
	// bits — byte-identical decisions and simulated metrics.
	Seed uint64
	// QueueDepth is the per-shard request buffer (default
	// DefaultQueueDepth).
	QueueDepth int
	// Metrics, when non-nil, receives live telemetry: every decision,
	// round count, operation count, and per-instance latency is recorded
	// on per-worker stripes (see NewMetrics). All bundle fields must be
	// set.
	Metrics *Metrics
	// Trace, when non-nil, arms the flight recorder: each worker session
	// records every instance's step events and each shard keeps its
	// PerShard most interesting captures (see TraceConfig). Read them
	// with Traces. Nil tracing costs nothing on the serving path.
	Trace *TraceConfig
	// Journal, when non-nil, receives the arena's lifecycle events —
	// currently one arena.drain on Close, chained to Owner. The journal
	// is deliberately kept off the serving path: per-instance telemetry
	// belongs to Metrics stripes, and journaling a coarse drain event
	// costs nothing per request.
	Journal *obslog.Journal
	// Owner is the correlation ID the arena's journal events chain to
	// (the job or campaign the arena serves; "" for a standalone arena).
	Owner string
}

// Result reports one served consensus instance.
type Result struct {
	// Key is the client's routing key.
	Key string
	// Shard is the shard that served the request.
	Shard int
	// Value is the agreed bit (undefined when Err != nil).
	Value int
	// FirstRound and LastRound are the instance's decision rounds.
	FirstRound, LastRound int
	// Ops is the instance's total operation count.
	Ops int64
	// SimTime is the instance's simulated duration.
	SimTime float64
	// Latency is the wall-clock time from submission to completion. It is
	// the only nondeterministic field.
	Latency time.Duration
	// Err is the instance's failure, if any.
	Err error
}

// request is one queued unit of work: either one derived proposal (the
// Propose/Submit path: the instance's seed and inputs come from the arena
// seed and the key) or, when cell is non-nil, a whole cell (the
// SubmitCell path), delivered on cellDone instead of done.
type request struct {
	key   string
	shard int
	bit   int
	enq   time.Time
	done  chan Result

	cell     *CellRequest
	cellDone chan CellResult
}

// ShardStats accumulates one shard's deterministic counters. All fields
// are pure functions of the served (key, bit) multiset, so they replay
// exactly; wall-clock latency lives in Stats instead.
type ShardStats struct {
	// Proposals counts requests served (including failed ones).
	Proposals int64
	// Decided counts decisions by value.
	Decided [2]int64
	// Errors counts failed instances.
	Errors int64
	// Ops sums instance operation counts.
	Ops int64
	// RoundSum sums first-decision rounds.
	RoundSum int64
	// MaxRound is the largest last-decision round observed.
	MaxRound int
}

// add folds one result into the counters.
func (s *ShardStats) add(r Result) {
	s.Proposals++
	if r.Err != nil {
		s.Errors++
		return
	}
	s.Decided[r.Value]++
	s.Ops += r.Ops
	s.RoundSum += int64(r.FirstRound)
	if r.LastRound > s.MaxRound {
		s.MaxRound = r.LastRound
	}
}

// merge folds another shard's counters into s.
func (s *ShardStats) merge(o ShardStats) {
	s.Proposals += o.Proposals
	s.Decided[0] += o.Decided[0]
	s.Decided[1] += o.Decided[1]
	s.Errors += o.Errors
	s.Ops += o.Ops
	s.RoundSum += o.RoundSum
	if o.MaxRound > s.MaxRound {
		s.MaxRound = o.MaxRound
	}
}

// Stats is an aggregate snapshot of a running arena.
type Stats struct {
	// Totals aggregates every shard.
	Totals ShardStats
	// PerShard holds one entry per shard.
	PerShard []ShardStats
	// Elapsed is the wall-clock time since New.
	Elapsed time.Duration
}

// Throughput reports decisions per wall-clock second since New.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Totals.Decided[0]+s.Totals.Decided[1]) / s.Elapsed.Seconds()
}

// MeanFirstRound reports the mean first-decision round across decided
// instances.
func (s Stats) MeanFirstRound() float64 {
	n := s.Totals.Decided[0] + s.Totals.Decided[1]
	if n == 0 {
		return 0
	}
	return float64(s.Totals.RoundSum) / float64(n)
}

// shard is one independent lane of the service.
type shard struct {
	id   int
	reqs chan *request

	mu    sync.Mutex
	stats ShardStats
}

// Arena is a sharded concurrent consensus service. Create one with New;
// it is safe for concurrent use by any number of clients.
type Arena struct {
	cfg    Config
	shards []*shard
	start  time.Time
	wg     sync.WaitGroup

	// keepers holds one trace keeper per worker, indexed by worker id
	// (shard*Workers+w); nil when tracing is off. Per-worker keepers make
	// trace capture contention-free on the serving path: the only writer
	// of a keeper is its worker, so ranking and event copying never
	// serialize workers against each other (they used to rank under a
	// per-shard mutex — the traced-throughput gap). Traces() merges them
	// per shard into exactly the set the shard-global ranking would keep.
	keepers []*traceKeeper

	mu     sync.RWMutex // guards closed and the shard queues' liveness
	closed bool
}

// New validates the configuration, applies defaults, and starts the
// shard worker pools.
func New(cfg Config) (*Arena, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.N == 0 {
		cfg.N = DefaultN
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Noise == nil {
		cfg.Noise = dist.Exponential{MeanVal: 1}
	}
	if cfg.Model == nil {
		m, err := engine.ByName(engine.DefaultModel)
		if err != nil {
			return nil, err
		}
		cfg.Model = m
	}
	if cfg.Shards < 0 || cfg.Workers < 0 || cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("arena: negative shard/worker/queue counts")
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("arena: N must be positive, got %d", cfg.N)
	}
	if err := engine.CheckAdversary(cfg.Model, cfg.Adversary); err != nil {
		return nil, fmt.Errorf("arena: %w", err)
	}
	a := &Arena{cfg: cfg, start: time.Now()}
	a.shards = make([]*shard, cfg.Shards)
	if cfg.Trace != nil {
		a.keepers = make([]*traceKeeper, cfg.Shards*cfg.Workers)
	}
	for i := range a.shards {
		s := &shard{
			id:   i,
			reqs: make(chan *request, cfg.QueueDepth),
		}
		a.shards[i] = s
		for w := 0; w < cfg.Workers; w++ {
			idx := i*cfg.Workers + w
			if cfg.Trace != nil {
				perShard, _ := cfg.Trace.withDefaults()
				a.keepers[idx] = &traceKeeper{k: perShard}
			}
			a.wg.Add(1)
			go a.worker(s, idx)
		}
	}
	return a, nil
}

// Shards reports the configured shard count.
func (a *Arena) Shards() int { return len(a.shards) }

// Config returns the effective configuration with defaults applied.
func (a *Arena) Config() Config { return a.cfg }

// ShardFor reports the shard a key routes to. Routing is a consistent
// hash: it is stable across runs, and growing the shard count from k to
// k+1 relocates only ~1/(k+1) of the keys.
func (a *Arena) ShardFor(key string) int { return jump(hash64(key), len(a.shards)) }

// Submit enqueues one proposal and returns the channel its Result will be
// delivered on. It blocks only when the target shard's queue is full
// (backpressure). After Close it returns ErrClosed.
func (a *Arena) Submit(key string, bit int) (<-chan Result, error) {
	if bit != 0 && bit != 1 {
		return nil, fmt.Errorf("arena: proposed bit must be 0 or 1, got %d", bit)
	}
	req := &request{
		key:   key,
		shard: a.ShardFor(key),
		bit:   bit,
		enq:   time.Now(),
		done:  make(chan Result, 1),
	}
	if err := a.enqueue(req); err != nil {
		return nil, err
	}
	return req.done, nil
}

// enqueue routes one prepared request onto its shard queue.
func (a *Arena) enqueue(req *request) error {
	// The read lock is held across the send so Close cannot close the
	// queue between the closed-check and the send. Workers keep draining
	// while Close waits for the write lock, so a blocked send still makes
	// progress.
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		return ErrClosed
	}
	if a.cfg.Metrics != nil {
		// Balanced by the serving worker's decrement; stripes may go
		// individually negative, only the cross-stripe sum is meaningful.
		// A cell counts as one queued request, whatever its Reps.
		a.cfg.Metrics.Queued.Stripe(req.shard).Add(1)
	}
	a.shards[req.shard].reqs <- req
	return nil
}

// QueueDepth reports the number of requests currently sitting in shard
// queues (admitted by Submit, not yet picked up by a worker). It is a
// live introspection signal — serving layers export it as a gauge and
// shed load against it — not a synchronized count.
func (a *Arena) QueueDepth() int {
	depth := 0
	for _, s := range a.shards {
		depth += len(s.reqs)
	}
	return depth
}

// Propose submits one proposal and waits for its decision or for ctx.
// On ctx expiry the instance still runs to completion in the background;
// only the wait is abandoned.
func (a *Arena) Propose(ctx context.Context, key string, bit int) (Result, error) {
	done, err := a.Submit(key, bit)
	if err != nil {
		return Result{}, err
	}
	select {
	case res := <-done:
		return res, res.Err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Stats snapshots the aggregate counters.
func (a *Arena) Stats() Stats {
	st := Stats{
		PerShard: make([]ShardStats, len(a.shards)),
		Elapsed:  time.Since(a.start),
	}
	for i, s := range a.shards {
		s.mu.Lock()
		st.PerShard[i] = s.stats
		s.mu.Unlock()
		st.Totals.merge(st.PerShard[i])
	}
	return st
}

// Close stops accepting new proposals, drains every in-flight and queued
// instance to completion, and waits for the workers to exit. It is
// idempotent.
func (a *Arena) Close() error {
	a.mu.Lock()
	first := !a.closed
	if first {
		a.closed = true
		for _, s := range a.shards {
			close(s.reqs)
		}
	}
	a.mu.Unlock()
	// Every caller waits for the drain, so a concurrent second Close
	// also returns only once all in-flight instances have completed.
	a.wg.Wait()
	if first {
		// Journaled once, after the drain: Count is the final proposal
		// total, so the event doubles as the arena's closing line item.
		a.cfg.Journal.Append(obslog.KindArenaDrain, "", a.cfg.Owner,
			obslog.Labels{Count: a.Stats().Totals.Proposals})
	}
	return nil
}

// worker serves one shard's queue until the queue closes. Each worker
// owns one engine.Session: the pooled simulation state is reused across
// every instance the worker serves, which is what keeps steady-state
// allocations near zero. Sessions never influence outcomes, so which
// worker serves a request remains observationally irrelevant.
func (a *Arena) worker(s *shard, idx int) {
	defer a.wg.Done()
	sess := engine.NewSession()
	var wm *workerMetrics
	if a.cfg.Metrics != nil {
		wm = a.cfg.Metrics.stripes(idx)
	}
	var tk *traceKeeper
	if a.cfg.Trace != nil {
		// One pooled recorder per worker, reset per instance — the same
		// lifecycle as the session's simulation buffers — and one private
		// trace keeper, so capture never contends with sibling workers.
		_, events := a.cfg.Trace.withDefaults()
		sess.SetTrace(trace.NewRecorder(events))
		tk = a.keepers[idx]
	}
	for req := range s.reqs {
		if req.cell != nil {
			req.cellDone <- a.serveCell(s, sess, req, wm, tk)
			continue
		}
		if rec := sess.Trace(); rec != nil {
			rec.Reset()
		}
		res := a.serve(s, sess, req, tk)
		s.mu.Lock()
		s.stats.add(res)
		s.mu.Unlock()
		if wm != nil {
			wm.record(res)
		}
		req.done <- res
	}
}

// serve runs one derived instance. Its seed mixes the arena seed with
// the key's stable hash, so the outcome does not depend on which shard or
// worker runs it, or in what order.
func (a *Arena) serve(s *shard, sess *engine.Session, req *request, tk *traceKeeper) Result {
	model := a.cfg.Model
	seed := xrand.Mix(a.cfg.Seed, hash64(req.key))
	inputs := sess.Inputs(a.cfg.N)
	inputs[0] = req.bit
	rng := sess.RNG(seed, 0x696e70757473) // "inputs"
	for i := 1; i < a.cfg.N; i++ {
		inputs[i] = rng.Intn(2)
	}
	spec := engine.Spec{
		Key:       req.key,
		Shard:     s.id,
		N:         a.cfg.N,
		Inputs:    inputs,
		Noise:     a.cfg.Noise,
		Adversary: a.cfg.Adversary,
		Seed:      seed,
	}
	res := Result{Key: req.key, Shard: s.id}
	ir, err := model.Run(spec, sess)
	if err != nil {
		res.Err = err
	} else {
		res.Value = ir.Value
		res.FirstRound = ir.FirstRound
		res.LastRound = ir.LastRound
		res.Ops = ir.Ops
		res.SimTime = ir.SimTime
	}
	if rec := sess.Trace(); rec != nil {
		tk.consider(model.Name(), spec, res, rec)
	}
	res.Latency = time.Since(req.enq)
	return res
}
