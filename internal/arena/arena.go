// Package arena is a sharded, worker-pool-backed consensus service: it
// runs many independent lean-consensus instances concurrently and serves
// them request-style. Every request is a cell (see cell.go), a caller's
// (RunCells) or a client's Propose(key, bit), which is a one-repetition
// cell. Every request waits in one arena-wide queue, and whichever
// worker is idle next executes it under a pluggable execution model
// (engine.Model) and returns the decided value together with aggregate
// latency and throughput statistics. A proposal's key picks its shard
// with a consistent hash; the shard holds the counters and the capture
// budget the proposal counts against, not a queue. Each worker owns one
// engine.Session, so steady-state serving reuses the simulation buffers
// instead of reallocating them per instance.
//
// The design leans on the paper's central observation in reverse: noisy
// scheduling makes each individual instance terminate in Θ(log n)
// expected rounds, so thousands of mutually independent instances can be
// packed onto a small worker pool with predictable per-request cost.
//
// Determinism: every proposal's outcome is a pure function of the arena
// seed, the key, the proposed bit, N, the noise, the model, and the
// adversary. Each proposal's private seed mixes the arena seed with the
// key's stable 64-bit hash, so the pool shape (Shards, Workers) decides
// only which worker runs an instance and when, never what it decides:
// whole-arena runs replay exactly under a fixed seed on any pool shape —
// including under `go test -race`. A caller's cells (RunCells) carry
// their own seeds, metrics bundle and capture budget, and read none of
// the arena's.
package arena

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
	"leanconsensus/internal/xrand"
)

// Defaults applied by New.
const (
	DefaultShards  = 8
	DefaultWorkers = 2
	DefaultN       = 8
	// DefaultQueueDepth is the request buffer per shard: the arena's one
	// queue holds Shards × QueueDepth requests, and submissions beyond
	// that apply backpressure by blocking.
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
	// Workers is the number of workers per shard (default
	// DefaultWorkers): the arena runs Shards × Workers workers, and every
	// one of them serves any request.
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
	// Adversary is the adversarial schedule armed for every proposal
	// (Submit/Propose); nil selects the zero schedule. New rejects a
	// schedule the model cannot run with the engine's typed error. A
	// caller's cells carry their own via CellRequest.Adversary.
	Adversary *engine.Adversary
	// Seed makes the whole arena reproducible: same seed, same keys, same
	// bits — byte-identical decisions and simulated metrics.
	Seed uint64
	// QueueDepth is the request buffer per shard (default
	// DefaultQueueDepth): the arena's one queue holds Shards × QueueDepth
	// requests.
	QueueDepth int
	// Metrics, when non-nil, is the metrics bundle of every proposal's
	// one-repetition cell, a caller's cells carrying their own: every
	// decision, round count, operation count, and per-instance latency is
	// recorded on per-worker stripes (see NewMetrics). All bundle fields
	// must be set.
	Metrics *Metrics
	// Trace, when non-nil, arms the flight recorder for the proposals, a
	// caller's cells carrying their own: each worker session records
	// every proposal's step events and each shard keeps the PerShard most
	// interesting captures among its keys' proposals, named by key, on
	// New's own copy (see TraceConfig). Read them with Traces. Nil
	// tracing costs nothing.
	Trace *TraceConfig
}

// Result reports one served consensus instance.
type Result struct {
	// Key is the client's routing key.
	Key string
	// Shard is the shard the proposal's key routes to (ShardFor); a
	// cell's repetitions carry 0.
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

// request is one queued cell, served in one piece by whichever worker
// takes it: a caller's (RunCells), delivered on done, or a proposal's
// (Submit), whose sink delivers its Result and which leaves done nil.
// shard is a proposal's ShardFor, which picks its capture keeper and
// its queued-gauge stripe; a caller's cell leaves it 0.
type request struct {
	cell  CellRequest
	shard int
	enq   time.Time
	done  chan CellResult
}

// ShardStats accumulates one shard's (or one cell's) deterministic
// counters. All fields are pure functions of the served instances, so
// they replay exactly; wall-clock latency lives in Stats instead.
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

// Merge folds another shard's or cell's counters into s.
func (s *ShardStats) Merge(o ShardStats) {
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

// Stats is an aggregate snapshot of a running arena's proposals
// (Submit/Propose); a caller's cells report theirs on CellResult.Stats.
type Stats struct {
	// Totals aggregates every shard.
	Totals ShardStats
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

// shard holds the counters of the proposals whose keys route to it.
type shard struct {
	mu    sync.Mutex
	stats ShardStats
}

// Arena is a sharded concurrent consensus service. Create one with New;
// it is safe for concurrent use by any number of clients.
type Arena struct {
	cfg    Config
	shards []*shard
	reqs   chan request // the one queue every worker drains
	start  time.Time
	wg     sync.WaitGroup

	proposals sync.Pool // of *proposal, put back by its own sink

	mu     sync.RWMutex // guards closed and the queue's liveness
	closed bool
}

// New validates the configuration, applies defaults, and starts the
// Shards × Workers workers.
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
	if cfg.Trace != nil {
		tc := *cfg.Trace
		for range cfg.Shards {
			tc.keepers = append(tc.keepers, &traceKeeper{k: tc.budget()})
		}
		cfg.Trace = &tc
	}
	a := &Arena{cfg: cfg, reqs: make(chan request, cfg.Shards*cfg.QueueDepth), start: time.Now()}
	a.proposals.New = func() any {
		p := &proposal{a: a, inputs: make([]int, cfg.N)}
		p.seedOf = func(int) uint64 { return p.seed }
		p.rng = rand.New(&p.src)
		return p
	}
	a.shards = make([]*shard, cfg.Shards)
	for i := range a.shards {
		a.shards[i] = &shard{}
	}
	for idx := range cfg.Shards * cfg.Workers {
		a.wg.Add(1)
		go a.worker(idx)
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
// delivered on. The proposal is a one-repetition cell that counts
// against the shard its key routes to: its seed mixes the arena seed
// with the key's hash, bit is process 0's input and the other inputs
// come from that seed's "inputs" stream, and it runs under the arena's
// Model, Noise, Adversary, Metrics and Trace. Submit blocks only when
// the arena's queue is full, whatever shard the key routes to
// (backpressure). After Close it returns ErrClosed.
func (a *Arena) Submit(key string, bit int) (<-chan Result, error) {
	if bit != 0 && bit != 1 {
		return nil, fmt.Errorf("arena: proposed bit must be 0 or 1, got %d", bit)
	}
	h := hash64(key)
	si := jump(h, len(a.shards))
	p := a.proposals.Get().(*proposal)
	p.seed = xrand.Mix(a.cfg.Seed, h)
	p.inputs[0] = bit
	p.src.Reset(p.seed, 0x696e70757473) // "inputs"
	for i := 1; i < len(p.inputs); i++ {
		p.inputs[i] = p.rng.Intn(2)
	}
	done := make(chan Result, 1)
	p.shard, p.enq, p.done = a.shards[si], time.Now(), done
	err := a.enqueue(&request{
		cell: CellRequest{
			Model: a.cfg.Model, Key: key, N: a.cfg.N, Inputs: p.inputs,
			Noise: a.cfg.Noise, Adversary: a.cfg.Adversary, Reps: 1,
			Seed: p.seedOf, Sink: p, Metrics: a.cfg.Metrics, Trace: a.cfg.Trace,
		},
		shard: si,
		enq:   p.enq,
	})
	if err != nil {
		a.proposals.Put(p)
		return nil, err
	}
	return done, nil
}

// proposal is one Submit in flight: the pooled inputs and seed of its
// one-repetition cell, and the sink that delivers its Result.
type proposal struct {
	a      *Arena
	shard  *shard
	enq    time.Time
	done   chan Result
	seed   uint64
	seedOf func(int) uint64 // returns seed; made once per pooled proposal
	inputs []int
	src    xrand.Source
	rng    *rand.Rand // draws from src
}

// Add stamps the proposal's latency, folds its result into the shard's
// counters and delivers it. The worker reads a cell's inputs and seed no
// more once its last repetition reaches the sink, so Add recycles p.
func (p *proposal) Add(_ int, r Result) {
	r.Latency = time.Since(p.enq)
	s, done := p.shard, p.done
	p.a.proposals.Put(p)
	s.mu.Lock()
	s.stats.add(r)
	s.mu.Unlock()
	done <- r
}

// enqueue puts one prepared request on the arena's queue.
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
	if m := req.cell.Metrics; m != nil {
		// Balanced by the serving worker's decrement on the same bundle;
		// stripes may go individually negative, only the cross-stripe sum
		// is meaningful. A cell counts as one queued request.
		m.Queued.Stripe(req.shard).Add(1)
	}
	a.reqs <- *req
	return nil
}

// QueueDepth reports the number of requests currently sitting in the
// arena's queue (admitted, not yet picked up by a worker). It is a live
// introspection signal — serving layers export it as a gauge and shed
// load against it — not a synchronized count.
func (a *Arena) QueueDepth() int { return len(a.reqs) }

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
	st := Stats{Elapsed: time.Since(a.start)}
	for _, s := range a.shards {
		s.mu.Lock()
		st.Totals.Merge(s.stats)
		s.mu.Unlock()
	}
	return st
}

// Close stops accepting new proposals, drains every in-flight and queued
// instance to completion, and waits for the workers to exit. It is
// idempotent.
func (a *Arena) Close() error {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.reqs)
	}
	a.mu.Unlock()
	// Every caller waits for the drain, so a concurrent second Close
	// also returns only once all in-flight instances have completed.
	a.wg.Wait()
	return nil
}

// worker serves the arena's queue until the queue closes. Each worker
// owns one engine.Session: the pooled simulation state is reused across
// every cell the worker serves, which is what keeps steady-state
// allocations near zero. Sessions never influence outcomes, so which
// worker serves a request remains observationally irrelevant. idx is
// the worker's metrics stripe.
func (a *Arena) worker(idx int) {
	defer a.wg.Done()
	sess := engine.NewSession()
	// One pooled recorder per worker, made on first use and reset per
	// repetition like the session's simulation buffers, armed only while
	// serving a cell that traces.
	var rec *trace.Recorder
	for req := range a.reqs {
		if req.cell.Trace == nil {
			sess.SetTrace(nil)
		} else {
			if rec == nil {
				rec = trace.NewRecorder(0)
			}
			sess.SetTrace(rec)
		}
		a.serveCell(sess, &req, idx)
	}
}
