// Package hybrid implements the hybrid quantum- and priority-based
// uniprocessor scheduling model of Section 7 (after Anderson and Moir [5]).
//
// Processes time-share a single processor under a pre-emptive scheduler.
// Each process has a priority; a running process may be pre-empted at any
// operation boundary by a process of strictly higher priority, and by a
// process of equal priority only once it has exhausted its quantum — a
// minimum number of operations it completes between being scheduled and
// becoming vulnerable to pre-emption. A process need not start the
// protocol at the beginning of a quantum: the adversary chooses how much
// of the first quantum was already consumed by other work.
//
// Theorem 14: running lean-consensus with a quantum of at least 8
// operations, every process decides after executing at most 12 operations.
// The engine here enforces the scheduling constraints and lets an
// Adversary choose everything else; internal/modelcheck additionally
// explores all adversary choices exhaustively for small configurations.
//
// Theorem 14 also makes a run Θ(n) operations. Under equal priorities
// the default randomized scheduler (Random) keeps a run close to that:
// wherever every live process may run, Runner draws its choice from an
// O(log n) index of the live processes instead of scanning them and
// copying a View.
package hybrid

import (
	"errors"
	"fmt"
	"math/rand"

	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
	"leanconsensus/internal/trace"
	"leanconsensus/internal/xrand"
)

// Config describes one hybrid-scheduled execution.
type Config struct {
	// N is the number of processes.
	N int
	// Machines holds one machine per process.
	Machines []machine.Machine
	// Mem is the shared memory, already initialized.
	Mem register.Mem
	// Priorities assigns each process a priority (higher value = higher
	// priority). nil means all equal.
	Priorities []int
	// Quantum is the scheduling quantum in operations; Theorem 14 requires
	// at least 8.
	Quantum int
	// InitialUsed[i] is how much of process i's first quantum was already
	// consumed by other work before it started the protocol (in [0,
	// Quantum]). nil means zero for all.
	InitialUsed []int
	// Adversary picks the next process to run whenever the scheduler has a
	// choice. nil means round-robin among the eligible.
	Adversary Adversary
	// MaxSteps aborts runaway executions (0 = a generous default).
	MaxSteps int64
	// Trace, when non-nil, receives flight-recorder events: one start per
	// process carrying its initially consumed quantum, one op per
	// executed operation with the process's round, preemptions, and
	// decisions. The model has no clock, so Event.Time is always 0.
	Trace *trace.Recorder
}

// Result summarizes a hybrid-scheduled execution.
type Result struct {
	// Decisions per process.
	Decisions []int
	// OpCounts per process: the Theorem 14 bound is OpCounts[i] <= 12.
	OpCounts []int64
	// MaxOps is the largest per-process op count.
	MaxOps int64
	// Preemptions counts scheduler switches away from a live process.
	Preemptions int
	// Steps is the total number of operations executed.
	Steps int64
}

// View exposes scheduler state to adversaries, for every choice among
// several processes but Random's among all live ones (see Random). Its
// slices are snapshots owned by the scheduler and valid only for the
// duration of Choose:
// adversaries must treat them as read-only and must not retain them
// across calls. The scheduler never reads them back, so a misbehaving
// adversary can only corrupt its own view, not the execution.
type View struct {
	// Current is the running process, or -1 if none (start of execution or
	// the previous process just decided).
	Current int
	// QuantumLeft is the running process's remaining pre-emption-safe
	// operations.
	QuantumLeft int
	// OpCounts per process so far.
	OpCounts []int64
	// Decided per process.
	Decided []bool
	// Priorities per process.
	Priorities []int
	// Eligible lists the processes the adversary may legally schedule
	// next (always includes Current when it is live).
	Eligible []int
}

// Adversary chooses the next process to run among the eligible set.
type Adversary interface {
	// Choose returns the process to run next; it must be one of
	// v.Eligible.
	Choose(v *View) int
}

// RoundRobin cycles through eligible processes.
type RoundRobin struct {
	last int
}

// Choose implements Adversary.
func (a *RoundRobin) Choose(v *View) int {
	n := len(v.Decided)
	for k := 1; k <= n; k++ {
		c := (a.last + k) % n
		for _, e := range v.Eligible {
			if e == c {
				a.last = c
				return c
			}
		}
	}
	a.last = v.Eligible[0]
	return a.last
}

// Random picks uniformly among eligible processes. When every live
// process is eligible, Runner makes Random's draw itself — Rng.Intn over
// the live count, taken as a rank in ascending process order, exactly
// what Choose would pick from that View — without calling Choose.
type Random struct {
	Rng *rand.Rand
}

// NewRandom returns a Random adversary with a deterministic stream.
func NewRandom(seed uint64) *Random {
	return &Random{Rng: xrand.New(seed, 0x68796272)}
}

// Choose implements Adversary.
func (a *Random) Choose(v *View) int {
	return v.Eligible[a.Rng.Intn(len(v.Eligible))]
}

// Sticky keeps the current process running whenever legal (a cooperative
// scheduler: pre-emption only by priority arrival, which Sticky never
// exercises).
type Sticky struct{}

// Choose implements Adversary.
func (Sticky) Choose(v *View) int {
	if v.Current >= 0 && !v.Decided[v.Current] {
		for _, e := range v.Eligible {
			if e == v.Current {
				return e
			}
		}
	}
	return v.Eligible[0]
}

// Laggard always schedules the eligible process with the fewest completed
// operations, trying to keep the race as tight as the constraints allow —
// the most adversarial heuristic for a racing-counters protocol.
type Laggard struct{}

// Choose implements Adversary.
func (Laggard) Choose(v *View) int {
	best := v.Eligible[0]
	for _, e := range v.Eligible[1:] {
		if v.OpCounts[e] < v.OpCounts[best] {
			best = e
		}
	}
	return best
}

// Errors returned by Run.
var errBadConfig = errors.New("hybrid: invalid config")

// Run executes the machines under the hybrid scheduling constraints until
// every process has decided, returning a fresh Result the caller owns.
func Run(cfg Config) (*Result, error) { return new(Runner).Run(cfg) }

// Runner executes hybrid-scheduled runs one after another, reusing the
// scheduler state, the result and the adversary's view buffers, so a
// warm runner allocates nothing per run. A *Random adversary's choice
// among all live processes costs O(log n), with no View (see Random).
// The zero Runner is ready to use; it is not safe for concurrent use.
type Runner struct {
	st       State
	res      Result
	pri      []int // all-equal priorities for a nil Config.Priorities
	used     []int // zero initial quanta for a nil Config.InitialUsed
	eligible []int

	// The view and its buffers are per-step snapshots that protect the
	// scheduler state from adversary mutation: the eligibility check
	// reads the scheduler-owned eligible slice, never the copy handed to
	// the adversary, and no adversary may retain them past Choose. The
	// view itself lives here because it escapes through Adversary.Choose.
	view         View
	viewEligible []int
	viewOps      []int64
	viewDecided  []bool
	viewPri      []int
}

// Run executes the machines under the hybrid scheduling constraints until
// every process has decided. The returned Result belongs to the runner
// and is valid until its next Run.
func (r *Runner) Run(cfg Config) (*Result, error) {
	n := cfg.N
	if n <= 0 || len(cfg.Machines) != n {
		return nil, fmt.Errorf("%w: need N machines", errBadConfig)
	}
	if cfg.Quantum < 1 {
		return nil, fmt.Errorf("%w: quantum must be >= 1", errBadConfig)
	}
	if cfg.Mem == nil {
		return nil, fmt.Errorf("%w: Mem is required", errBadConfig)
	}
	pri := cfg.Priorities
	if pri == nil {
		r.pri = resize(r.pri, n)
		clear(r.pri)
		pri = r.pri
	}
	if len(pri) != n {
		return nil, fmt.Errorf("%w: need N priorities", errBadConfig)
	}
	used := cfg.InitialUsed
	if used == nil {
		r.used = resize(r.used, n)
		clear(r.used)
		used = r.used
	}
	if len(used) != n {
		return nil, fmt.Errorf("%w: need N initial-quantum values", errBadConfig)
	}
	partial := -1
	for i, u := range used {
		if u < 0 || u > cfg.Quantum {
			return nil, fmt.Errorf("%w: InitialUsed[%d]=%d outside [0,%d]", errBadConfig, i, u, cfg.Quantum)
		}
		if u > 0 {
			if partial >= 0 {
				return nil, fmt.Errorf(
					"%w: both process %d and %d start mid-quantum; a uniprocessor has one running process",
					errBadConfig, partial, i)
			}
			partial = i
		}
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = &RoundRobin{}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = int64(n) * 1 << 16
	}

	st := &r.st
	st.reset(cfg.Machines, cfg.Mem, pri, cfg.Quantum, used, false)
	res := &r.res
	*res = Result{Decisions: resize(res.Decisions, n), OpCounts: resize(res.OpCounts, n)}
	if cfg.Trace != nil {
		for i := 0; i < n; i++ {
			cfg.Trace.Append(trace.Event{
				Delay: float64(used[i]), Proc: int32(i), Kind: trace.KindStart,
			})
		}
	}

	rnd, _ := adv.(*Random)
	for st.live > 0 {
		if res.Steps >= maxSteps {
			return nil, fmt.Errorf("hybrid: no termination within %d steps", maxSteps)
		}
		var choice int
		if rnd != nil && st.live > 1 && st.open() {
			// Every live process is eligible, so Random's draw from the
			// ascending eligible list is a draw by rank among the live.
			choice = st.nthLive(rnd.Rng.Intn(st.live))
		} else if r.eligible = st.EligibleInto(r.eligible); len(r.eligible) == 1 {
			choice = r.eligible[0]
		} else {
			r.viewOps = append(r.viewOps[:0], st.ops...)
			r.viewDecided = append(r.viewDecided[:0], st.decided...)
			r.viewPri = append(r.viewPri[:0], pri...)
			r.viewEligible = append(r.viewEligible[:0], r.eligible...)
			r.view = View{
				Current:     st.current,
				QuantumLeft: st.quantumLeft(),
				OpCounts:    r.viewOps,
				Decided:     r.viewDecided,
				Priorities:  r.viewPri,
				Eligible:    r.viewEligible,
			}
			choice = adv.Choose(&r.view)
			if !contains(r.eligible, choice) {
				return nil, fmt.Errorf("hybrid: adversary chose ineligible process %d", choice)
			}
		}
		preempted := st.current >= 0 && st.current != choice && !st.decided[st.current]
		if preempted {
			res.Preemptions++
			if cfg.Trace != nil {
				cfg.Trace.Append(trace.Event{
					Proc: int32(st.current), Value: int32(choice), Kind: trace.KindPreempt,
				})
			}
		}
		st.ExecuteOne(choice)
		res.Steps++
		if cfg.Trace != nil {
			var round int32
			if rd, ok := st.machines[choice].(machine.Rounder); ok {
				round = int32(rd.Round())
			}
			cfg.Trace.Append(trace.Event{
				Step: st.ops[choice], Proc: int32(choice), Round: round, Kind: trace.KindOp,
			})
			if st.decided[choice] {
				cfg.Trace.Append(trace.Event{
					Step: st.ops[choice], Proc: int32(choice), Round: round,
					Value: int32(st.machines[choice].Decision()), Kind: trace.KindDecide,
				})
			}
		}
	}

	for i := 0; i < n; i++ {
		res.Decisions[i] = st.machines[i].Decision()
		res.OpCounts[i] = st.ops[i]
		if st.ops[i] > res.MaxOps {
			res.MaxOps = st.ops[i]
		}
	}
	return res, nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
