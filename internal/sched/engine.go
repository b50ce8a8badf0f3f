package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"leanconsensus/internal/cacheline"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/eventq"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
	"leanconsensus/internal/trace"
	"leanconsensus/internal/xrand"
)

// Default engine parameters.
const (
	// DefaultDither matches the paper's Section 9 simulations: start times
	// are perturbed by U(0, 1e-8) to rule out simultaneous operations.
	DefaultDither = 1e-8
	// DefaultMaxOpsPerProc is the safety valve against non-terminating
	// configurations (e.g. Constant noise with a lockstep adversary).
	DefaultMaxOpsPerProc = 1 << 22
)

// Config describes one simulated execution.
type Config struct {
	// N is the number of processes.
	N int
	// Machines holds one state machine per process. The caller prepares
	// them (and the memory layout) so that the engine stays independent of
	// any particular algorithm.
	Machines []machine.Machine
	// Mem is the shared memory, already initialized (e.g. via
	// Layout.InitMem). If nil, a fresh SimMem is used, but then machines
	// requiring an initialized prefix will misbehave, so callers normally
	// pass one.
	Mem register.Mem
	// ReadNoise and WriteNoise are the noise distributions F_π per
	// operation type (Section 3.1 allows a distinct distribution per op
	// type). WriteNoise defaults to ReadNoise. ReadNoise is required.
	ReadNoise, WriteNoise dist.Distribution
	// Adversary supplies Δ_i0 and Δ_ij; nil means the Zero adversary.
	Adversary Adversary
	// FailureProb is h(n), the probability that any given operation kills
	// its process (Section 3.1.2).
	FailureProb float64
	// Seed makes the execution fully reproducible.
	Seed uint64
	// DitherScale perturbs start times by U(0, DitherScale); zero selects
	// DefaultDither. Negative disables dithering (tests only).
	DitherScale float64
	// MaxOpsPerProc aborts a run where some process exceeds this many
	// operations; zero selects DefaultMaxOpsPerProc.
	MaxOpsPerProc int64
	// History, when non-nil, receives every executed operation.
	History *register.History
	// Trace, when non-nil, receives flight-recorder events: starts with
	// their adversary delays Δ_i0, every operation with its Δ_ij, round
	// transitions with the leader view, decisions, and halts. Tracing is
	// write-only — it never perturbs the execution — and each event is a
	// ring-slot write, so the enabled path stays allocation-free too.
	Trace *trace.Recorder
	// Crasher, when non-nil, is consulted before each operation is
	// scheduled; returning true halts the process permanently. This models
	// the adaptive (non-random) crash failures discussed in Section 10,
	// which are strictly stronger than the model's random failures.
	Crasher func(i int, j int64, v View) bool
	// Contention, when non-nil, adds load-dependent delays on busy
	// registers (Section 10, "Synchronization and contention").
	Contention *Contention
}

// Result summarizes one simulated execution.
type Result struct {
	// Decisions holds each process's decided value, or -1.
	Decisions []int
	// DecisionRounds holds the round at which each process decided, or 0.
	DecisionRounds []int
	// DecisionSeqs holds, per process, the global op sequence number of
	// its deciding operation, or -1.
	DecisionSeqs []int64
	// OpCounts holds the operations executed by each process.
	OpCounts []int64
	// Halted marks processes killed by failures.
	Halted []bool
	// FirstDecisionProc is the process that decided earliest in simulated
	// time (-1 if none decided).
	FirstDecisionProc int
	// FirstDecisionRound is that process's decision round — the Figure 1
	// metric ("the round at which the first process terminates").
	FirstDecisionRound int
	// FirstDecisionTime is the simulated time of the first decision.
	FirstDecisionTime float64
	// LastDecisionRound is the largest decision round.
	LastDecisionRound int
	// MaxRound is the largest round any process reached (meaningful also
	// when everyone halted).
	MaxRound int
	// TotalOps is the total number of operations executed.
	TotalOps int64
	// Time is the simulated time at which the run ended.
	Time float64
	// AllHalted reports that every process was killed before deciding; the
	// paper treats such runs as terminating in the last round in which
	// some process took a step (MaxRound).
	AllHalted bool
	// CapHit reports that the safety valve stopped the run.
	CapHit bool
	// BackupUsed counts processes that fell through to the backup protocol
	// (combined machines only).
	BackupUsed int
	// Failed reports that some machine aborted (backup budget exhausted).
	Failed bool
}

// reset clears the result for a run of n processes, reusing its slices
// when they are large enough.
func (r *Result) reset(n int) {
	*r = Result{
		Decisions:         resize(r.Decisions, n),
		DecisionRounds:    resize(r.DecisionRounds, n),
		DecisionSeqs:      resize(r.DecisionSeqs, n),
		OpCounts:          resize(r.OpCounts, n),
		Halted:            resize(r.Halted, n),
		FirstDecisionProc: -1,
	}
	for i := 0; i < n; i++ {
		r.Decisions[i] = -1
		r.DecisionRounds[i] = 0
		r.DecisionSeqs[i] = -1
		r.OpCounts[i] = 0
		r.Halted[i] = false
	}
}

// resize returns s truncated or regrown to length n, reusing its backing
// array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return cacheline.Make[T](n)
}

// Agreement reports whether all decided processes agree, and the common
// value (-1 if no process decided).
func (r *Result) Agreement() (value int, ok bool) {
	value = -1
	for _, d := range r.Decisions {
		if d < 0 {
			continue
		}
		if value < 0 {
			value = d
		} else if value != d {
			return -1, false
		}
	}
	return value, true
}

// procState is the engine's per-process bookkeeping. The src/rng pair
// survives Reset so that a pooled engine reuses its rand.Rand allocations
// across runs; everything else is per-run state.
type procState struct {
	m       machine.Machine
	next    machine.Op
	time    float64 // S_ij of the last scheduled operation
	j       int64   // operation index (1-based)
	ops     int64
	src     *xrand.Source
	rng     *rand.Rand
	decided bool
	halted  bool
	decRnd  int
	decSeq  int64
	dec     int

	// Tracing-only fields, maintained only when cfg.Trace is armed.
	lastDelay float64 // Δ_ij of the pending operation
	round     int32   // last round a KindRound event was emitted for
}

// Engine runs one noisy-scheduling execution. An Engine may be reused for
// many runs via Reset, which keeps the per-process buffers and RNG streams
// allocated; a reused engine produces bit-identical results to a fresh
// one, because Reset re-derives every random stream from the new seed.
type Engine struct {
	cfg        Config
	mem        register.Mem
	procs      []procState
	srcs       []xrand.Source // procs[i].src, one slab so the streams share lines only with each other
	queue      eventq.Queue   // one pending completion per live process, key = process
	adv        Adversary
	wNoise     dist.Distribution
	contention *contentionState
	seq        int64
	_          [88]byte // to 3 cache-line blocks (internal/cacheline), as a pooled engine
}

// Errors returned by the engine.
var (
	errBadConfig = errors.New("sched: invalid config")
)

// NewEngine validates the configuration and prepares an execution.
func NewEngine(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset validates a new configuration and arms the engine for one more
// Run, reusing the engine's internal buffers. It is the allocation-light
// path used by pooled sessions (internal/engine): after the first run at
// a given N, subsequent Reset+Run cycles allocate nothing in the engine
// itself.
func (e *Engine) Reset(cfg Config) error {
	if cfg.N <= 0 {
		return fmt.Errorf("%w: N must be positive", errBadConfig)
	}
	if len(cfg.Machines) != cfg.N {
		return fmt.Errorf("%w: need %d machines, got %d", errBadConfig, cfg.N, len(cfg.Machines))
	}
	if cfg.ReadNoise == nil {
		return fmt.Errorf("%w: ReadNoise is required", errBadConfig)
	}
	if cfg.FailureProb < 0 || cfg.FailureProb >= 1 {
		return fmt.Errorf("%w: FailureProb must be in [0,1)", errBadConfig)
	}
	if cfg.Contention != nil && (cfg.Contention.HalfLife <= 0 || cfg.Contention.Penalty < 0) {
		return fmt.Errorf("%w: contention needs positive half-life and non-negative penalty", errBadConfig)
	}
	e.cfg = cfg
	e.mem = cfg.Mem
	e.adv = cfg.Adversary
	e.wNoise = cfg.WriteNoise
	e.seq = 0
	e.contention = nil
	if e.mem == nil {
		// Size the fallback memory from the plain lean layout rather than a
		// magic constant; SimMem grows on demand regardless.
		e.mem = register.NewSimMem(register.Layout{}.Registers(register.DefaultLeanRounds))
	}
	if e.adv == nil {
		e.adv = Zero{}
	}
	if e.wNoise == nil {
		e.wNoise = cfg.ReadNoise
	}
	if cfg.Contention != nil {
		e.contention = newContentionState(*cfg.Contention)
	}
	return nil
}

// View interface implementation (for adaptive adversaries).

type engineView Engine

// N implements View.
func (v *engineView) N() int { return v.cfg.N }

// Round implements View.
func (v *engineView) Round(i int) int {
	if r, ok := v.procs[i].m.(machine.Rounder); ok {
		return r.Round()
	}
	return 0
}

// Decided implements View.
func (v *engineView) Decided(i int) bool { return v.procs[i].decided }

// Halted implements View.
func (v *engineView) Halted(i int) bool { return v.procs[i].halted }

// Leader implements View.
func (v *engineView) Leader() (proc, round int) {
	proc = -1
	for i := range v.procs {
		if v.procs[i].decided || v.procs[i].halted {
			continue
		}
		if r := v.Round(i); r > round || proc < 0 {
			proc, round = i, r
		}
	}
	return proc, round
}

// noise samples the per-operation random delay X_ij for an operation kind.
func (e *Engine) noise(p *procState, kind register.OpKind) float64 {
	if kind == register.OpWrite {
		return e.wNoise.Sample(p.rng)
	}
	return e.cfg.ReadNoise.Sample(p.rng)
}

// advance computes S_{i,j+1}, the completion time of process i's next
// operation, into its time field, or halts the process if the failure
// coin or the crasher strikes. It reports whether the process is still
// live; the caller files the new completion in the event queue. Noise
// that makes the time NaN is a config error: NaN has no place in the
// queue's order.
func (e *Engine) advance(i int) (bool, error) {
	p := &e.procs[i]
	p.j++
	if e.cfg.FailureProb > 0 && p.rng.Float64() < e.cfg.FailureProb {
		// H_ij = ∞: the process halts before this operation.
		p.halted = true
		e.traceHalt(p, i)
		return false, nil
	}
	if e.cfg.Crasher != nil && e.cfg.Crasher(i, p.j, (*engineView)(e)) {
		p.halted = true
		e.traceHalt(p, i)
		return false, nil
	}
	d := e.adv.StepDelay(i, p.j, (*engineView)(e))
	if !validDelay(d, e.adv.Bound()) {
		panic(fmt.Sprintf("sched: adversary delay %v outside [0, %v]", d, e.adv.Bound()))
	}
	if e.contention != nil {
		d += e.contention.penalty(int(p.next.Reg), p.time)
	}
	if e.cfg.Trace != nil {
		p.lastDelay = d
	}
	p.time += d + e.noise(p, p.next.Kind)
	if math.IsNaN(p.time) {
		return false, fmt.Errorf("%w: NaN completion time for process %d at step %d", errBadConfig, i, p.j)
	}
	return true, nil
}

// traceHalt records a process death at its last completed-operation time.
func (e *Engine) traceHalt(p *procState, i int) {
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace.Append(trace.Event{
		Time: p.time, Step: p.j, Proc: int32(i), Round: p.round, Kind: trace.KindHalt,
	})
}

// Run executes the configured simulation to completion, returning a fresh
// Result the caller may retain indefinitely.
func (e *Engine) Run() (*Result, error) {
	res := &Result{}
	if err := e.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto executes the configured simulation to completion, writing the
// outcome into res. Any slices already present in res are reused when
// large enough, so a pooled caller that passes the same Result each run
// amortizes every result allocation away. Each Reset arms exactly one
// run.
func (e *Engine) RunInto(res *Result) error {
	n := e.cfg.N
	maxOps := e.cfg.MaxOpsPerProc
	if maxOps == 0 {
		maxOps = DefaultMaxOpsPerProc
	}
	dither := e.cfg.DitherScale
	switch {
	case dither == 0:
		dither = DefaultDither
	case dither < 0:
		dither = 0
	}

	if cap(e.procs) >= n {
		e.procs = e.procs[:n]
	} else {
		e.procs = cacheline.Make[procState](n)
		e.srcs = cacheline.Make[xrand.Source](cap(e.procs)) // every proc the slab can hold
	}
	e.queue.Reset(n)
	for i := 0; i < n; i++ {
		p := &e.procs[i]
		// Preserve the src/rng allocation across runs; re-derive the stream.
		if p.src == nil {
			p.src = &e.srcs[i]
			p.rng = rand.New(p.src)
		}
		p.src.Reset(e.cfg.Seed, 0x70726f63, uint64(i)) // per-process stream
		*p = procState{src: p.src, rng: p.rng, m: e.cfg.Machines[i], decSeq: -1}
		p.next = p.m.Begin()
		start := e.adv.StartDelay(i)
		if start < 0 {
			return fmt.Errorf("%w: negative start delay for process %d", errBadConfig, i)
		}
		delta0 := start
		if dither > 0 {
			start += xrand.Dither(p.rng, dither)
		}
		p.time = start
		if e.cfg.Trace != nil {
			e.cfg.Trace.Append(trace.Event{
				Time: p.time, Delay: delta0, Proc: int32(i), Kind: trace.KindStart,
			})
		}
		ok, err := e.advance(i)
		if err != nil {
			return err
		}
		if ok {
			e.queue.Push(p.time, uint32(i), 0)
		}
	}

	res.reset(n)

	live := n
	for i := range e.procs {
		if e.procs[i].halted {
			live--
		}
	}

	// Each step executes the earliest pending completion in place: the
	// root stays in the queue until the step settles whether the process
	// goes on (FixTop files its next completion with one sift) or leaves
	// (Pop). Nothing in between reads the queue — the crasher, the
	// adversary and the trace's leader view read only procs. The queue
	// orders by (time, process), strict and total because every live
	// process has exactly one pending completion; with dithered starts
	// time ties occur with probability zero, so the tie-break only pins
	// down determinism. The completion's time is the process's own.
	for live > 0 && e.queue.Len() > 0 {
		key, _ := e.queue.Top()
		i := int(key)
		p := &e.procs[i]
		now := p.time
		op := p.next

		var result uint32
		switch op.Kind {
		case register.OpRead:
			result = e.mem.Read(op.Reg)
		case register.OpWrite:
			e.mem.Write(op.Reg, op.Val)
			result = 0
		default:
			return fmt.Errorf("sched: machine %d emitted invalid op kind %v", i, op.Kind)
		}
		p.ops++
		res.TotalOps++
		res.Time = now
		if e.contention != nil {
			e.contention.bump(int(op.Reg), now)
		}
		if e.cfg.History != nil {
			e.cfg.History.Append(register.Event{
				Time: now, Proc: i, Kind: op.Kind, Reg: op.Reg, Val: opValue(op, result),
			})
		}
		e.seq++

		next, st := p.m.Step(result)
		if e.cfg.Trace != nil {
			round := p.round
			if r, ok := p.m.(machine.Rounder); ok {
				round = int32(r.Round())
			}
			e.cfg.Trace.Append(trace.Event{
				Time: now, Delay: p.lastDelay, Step: p.j, Proc: int32(i),
				Round: round, Value: int32(opValue(op, result)), Kind: trace.KindOp,
			})
			if round > p.round {
				p.round = round
				leader, _ := (*engineView)(e).Leader()
				e.cfg.Trace.Append(trace.Event{
					Time: now, Proc: int32(i), Round: round, Value: int32(leader), Kind: trace.KindRound,
				})
			}
		}
		switch st {
		case machine.Decided:
			p.decided = true
			p.dec = p.m.Decision()
			p.decSeq = e.seq - 1
			if r, ok := p.m.(machine.Rounder); ok {
				p.decRnd = r.Round()
			}
			if res.FirstDecisionProc < 0 {
				res.FirstDecisionProc = i
				res.FirstDecisionRound = p.decRnd
				res.FirstDecisionTime = now
			}
			if e.cfg.Trace != nil {
				e.cfg.Trace.Append(trace.Event{
					Time: now, Step: p.j, Proc: int32(i),
					Round: int32(p.decRnd), Value: int32(p.dec), Kind: trace.KindDecide,
				})
			}
			e.queue.Pop()
			live--
		case machine.Failed:
			res.Failed = true
			p.halted = true
			e.traceHalt(p, i)
			e.queue.Pop()
			live--
		case machine.Running:
			p.next = next
			if p.ops >= maxOps {
				res.CapHit = true
				live = 0
				break
			}
			ok, err := e.advance(i)
			switch {
			case err != nil:
				return err
			case ok:
				e.queue.FixTop(p.time, uint32(i), 0)
			default:
				e.queue.Pop()
				live--
			}
		}
	}

	allHalted := true
	for i := range e.procs {
		p := &e.procs[i]
		res.OpCounts[i] = p.ops
		res.Halted[i] = p.halted
		if p.decided {
			allHalted = false
			res.Decisions[i] = p.dec
			res.DecisionRounds[i] = p.decRnd
			res.DecisionSeqs[i] = p.decSeq
			if p.decRnd > res.LastDecisionRound {
				res.LastDecisionRound = p.decRnd
			}
		}
		if r, ok := p.m.(machine.Rounder); ok {
			if rr := r.Round(); rr > res.MaxRound {
				res.MaxRound = rr
			}
		}
		if bu, ok := p.m.(interface{ BackupUsed() bool }); ok && bu.BackupUsed() {
			res.BackupUsed++
		}
	}
	res.AllHalted = allHalted
	return nil
}

// opValue is the value recorded in histories: for reads, the value read;
// for writes, the value written.
func opValue(op machine.Op, readResult uint32) uint32 {
	if op.Kind == register.OpWrite {
		return op.Val
	}
	return readResult
}
