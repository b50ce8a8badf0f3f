package hybrid

import (
	"fmt"
	"math/bits"
	"strings"

	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
)

// State is the explicit scheduler state of a hybrid-scheduled execution.
// It is shared between Run (which drives it with an Adversary) and the
// exhaustive model checker (which branches over every legal choice), so
// both enforce exactly the same scheduling constraints.
type State struct {
	machines []machine.Machine
	mem      register.Mem
	pri      []int
	maxPri   int // highest priority of any process
	minPri   int // lowest priority of any process
	quantum  int

	current   int   // running process, -1 if none
	remaining []int // pre-emption-safe ops left; meaningful for current
	started   []bool
	decided   []bool
	pending   []machine.Op
	ops       []int64
	live      int
	// liveTree is a Fenwick tree over the undecided processes: node j
	// (1-based) counts those among processes j−(j&−j) … j−1, so nthLive
	// and a decision's update each cost O(log n).
	liveTree []int

	// liberal disables the uniprocessor consistency rule that a process
	// waking up always begins a fresh quantum: in liberal mode every
	// process carries its initial partial quantum to its first scheduling,
	// even if that scheduling is a wake-up. The mode exists only to
	// demonstrate (internal/modelcheck) that Theorem 14's 12-op bound
	// fails under that physically inconsistent reading.
	liberal bool
}

// newState builds the initial scheduler state. used[i] is the part of the
// first quantum already consumed by other work.
//
// On a uniprocessor at most one process can be mid-quantum at any instant —
// the one currently holding the processor. A process that is asleep starts
// a fresh quantum when it wakes (this is what makes the Theorem 14 proof's
// "Q1 is at the start of a quantum" step sound). newState therefore treats
// the process with used > 0, if any, as the process on the CPU at time
// zero; Run rejects configurations with more than one nonzero used value.
// In liberal mode (model checker only) the old inconsistent semantics are
// kept: every process carries its partial quantum to its first scheduling.
func newState(machines []machine.Machine, mem register.Mem, pri []int, quantum int, used []int, liberal bool) *State {
	st := &State{}
	st.reset(machines, mem, pri, quantum, used, liberal)
	return st
}

// reset re-arms st with newState's initial state, reusing its slices when
// they are large enough.
func (st *State) reset(machines []machine.Machine, mem register.Mem, pri []int, quantum int, used []int, liberal bool) {
	n := len(machines)
	*st = State{
		machines:  machines,
		mem:       mem,
		pri:       pri,
		quantum:   quantum,
		current:   -1,
		remaining: resize(st.remaining, n),
		started:   resize(st.started, n),
		decided:   resize(st.decided, n),
		pending:   resize(st.pending, n),
		ops:       resize(st.ops, n),
		live:      n,
		liveTree:  resize(st.liveTree, n+1),
		liberal:   liberal,
	}
	for i := 0; i < n; i++ {
		st.remaining[i] = quantum - used[i]
		st.started[i] = false
		st.decided[i] = false
		st.pending[i] = machine.Op{}
		st.ops[i] = 0
		if !liberal && used[i] > 0 && st.current < 0 {
			st.current = i
		}
		if i == 0 || pri[i] > st.maxPri {
			st.maxPri = pri[i]
		}
		if i == 0 || pri[i] < st.minPri {
			st.minPri = pri[i]
		}
		st.liveTree[i+1] = (i + 1) & -(i + 1)
	}
}

// resize returns s truncated or regrown to length n, reusing its backing
// array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// NewState is the exported constructor used by the model checker, with the
// consistent uniprocessor semantics: the process with used > 0 (at most
// one) holds the CPU at time zero, and every wake-up grants a full
// quantum.
func NewState(machines []machine.Machine, mem register.Mem, pri []int, quantum int, used []int) *State {
	return newState(machines, mem, pri, quantum, used, false)
}

// NewStateLiberal is NewState under the liberal (inconsistent) quantum
// reading; see the liberal field. It exists so the model checker can
// exhibit the 13-operation counterexample that motivates the restriction.
func NewStateLiberal(machines []machine.Machine, mem register.Mem, pri []int, quantum int, used []int) *State {
	return newState(machines, mem, pri, quantum, used, true)
}

// Live reports the number of undecided processes.
func (st *State) Live() int { return st.live }

// Ops reports the operations executed by process i.
func (st *State) Ops(i int) int64 { return st.ops[i] }

// Decided reports whether process i has decided.
func (st *State) Decided(i int) bool { return st.decided[i] }

// Decision reports process i's decision (valid when Decided).
func (st *State) Decision(i int) int { return st.machines[i].Decision() }

// quantumLeft reports the running process's remaining credit (0 if none).
func (st *State) quantumLeft() int {
	if st.current < 0 {
		return 0
	}
	if r := st.remaining[st.current]; r > 0 {
		return r
	}
	return 0
}

// Eligible returns the processes that may legally execute the next
// operation:
//
//   - the current process, while it has not decided;
//   - any process of strictly higher priority than the current one
//     (priority pre-emption may happen at any time);
//   - any process of equal priority, once the current process has
//     exhausted its quantum (same-priority pre-emption);
//   - any live process at all, when the processor is free (start of the
//     execution, or the current process has decided and left the
//     protocol).
//
// A lower-priority process can never run while an undecided higher-
// priority process holds the processor, even one whose quantum has
// expired: quantum rotation happens within a priority level. This is the
// reading Theorem 14's proof relies on ("all of the processes in this
// chain (except possibly Q1) have a higher priority than P0"); allowing
// lower-priority processes to slip in after quantum expiry admits
// 13-operation executions, which the model checker demonstrates if this
// rule is relaxed.
func (st *State) Eligible() []int {
	return st.EligibleInto(nil)
}

// EligibleInto is Eligible with a caller-supplied buffer, so the per-step
// scheduling loop in Run does not allocate. While the current process
// holds its quantum at the top priority — most steps — it answers in
// O(1) instead of scanning every process.
func (st *State) EligibleInto(out []int) []int {
	out = out[:0]
	c := st.current
	if c >= 0 && !st.decided[c] && st.remaining[c] > 0 && st.pri[c] >= st.maxPri {
		// A process holding its quantum at the top priority cannot be
		// pre-empted, so the scan below would return exactly [c].
		return append(out, c)
	}
	all := st.open()
	for i, d := range st.decided {
		if !d && (all || i == c || st.pri[i] > st.pri[c] ||
			st.remaining[c] <= 0 && st.pri[i] == st.pri[c]) {
			out = append(out, i)
		}
	}
	return out
}

// open reports whether every live process may run next: the processor
// is free, or its holder has spent its quantum and no process has a
// lower priority. Under equal priorities that is every quantum boundary
// and decision, and Run then draws a *Random choice with nthLive.
func (st *State) open() bool {
	c := st.current
	return c < 0 || st.decided[c] || st.remaining[c] <= 0 && st.pri[c] <= st.minPri
}

// nthLive returns the k-th undecided process in ascending order, for k
// in [0, Live()).
func (st *State) nthLive(k int) int {
	i := 0
	for step := 1 << (bits.Len(uint(len(st.liveTree)-1)) - 1); step > 0; step >>= 1 {
		if j := i + step; j < len(st.liveTree) && st.liveTree[j] <= k {
			i = j
			k -= st.liveTree[j]
		}
	}
	return i
}

// ExecuteOne runs a single operation of process i, which must be eligible.
// Scheduling i when it is not current counts as a wake-up: its quantum
// resets to the full quantum. (The initial partial quantum applies only to
// the process holding the CPU at time zero, which newState makes current,
// so it is never reset here. Liberal mode instead lets unstarted processes
// keep their partial quantum.)
func (st *State) ExecuteOne(i int) {
	if st.decided[i] {
		panic("hybrid: scheduling a decided process")
	}
	if i != st.current {
		if !st.liberal || st.started[i] {
			st.remaining[i] = st.quantum
		}
		st.current = i
	}
	var op machine.Op
	if !st.started[i] {
		op = st.machines[i].Begin()
		st.started[i] = true
	} else {
		op = st.pending[i]
	}
	var result uint32
	switch op.Kind {
	case register.OpRead:
		result = st.mem.Read(op.Reg)
	case register.OpWrite:
		st.mem.Write(op.Reg, op.Val)
	default:
		panic(fmt.Sprintf("hybrid: invalid op kind %v", op.Kind))
	}
	st.ops[i]++
	st.remaining[i]--
	next, status := st.machines[i].Step(result)
	switch status {
	case machine.Decided:
		st.decided[i] = true
		st.live--
		for j := i + 1; j < len(st.liveTree); j += j & -j {
			st.liveTree[j]--
		}
	case machine.Running:
		st.pending[i] = next
	default:
		panic(fmt.Sprintf("hybrid: machine %d returned status %v", i, status))
	}
}

// Clone deep-copies the state for model-checking. It requires every
// machine to implement machine.Cloner and the memory to be a *SimMem.
func (st *State) Clone() *State {
	sim, ok := st.mem.(*register.SimMem)
	if !ok {
		panic("hybrid: Clone requires SimMem")
	}
	n := len(st.machines)
	cp := &State{
		machines:  make([]machine.Machine, n),
		mem:       sim.Clone(),
		pri:       st.pri, // immutable
		maxPri:    st.maxPri,
		minPri:    st.minPri,
		quantum:   st.quantum,
		current:   st.current,
		remaining: append([]int(nil), st.remaining...),
		started:   append([]bool(nil), st.started...),
		decided:   append([]bool(nil), st.decided...),
		pending:   append([]machine.Op(nil), st.pending...),
		ops:       append([]int64(nil), st.ops...),
		live:      st.live,
		liveTree:  append([]int(nil), st.liveTree...),
		liberal:   st.liberal,
	}
	for i, m := range st.machines {
		c, ok := m.(machine.Cloner)
		if !ok {
			panic("hybrid: Clone requires cloneable machines")
		}
		cp.machines[i] = c.Clone()
	}
	return cp
}

// Key serializes the scheduler-relevant state for visited-set hashing in
// the model checker. Machines must implement machine.Keyer. Operation
// counts are deliberately excluded: for the deterministic machines checked
// here they are a function of the machine state.
func (st *State) Key() string {
	sim, ok := st.mem.(*register.SimMem)
	if !ok {
		panic("hybrid: Key requires SimMem")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "c%d|", st.current)
	if st.current >= 0 {
		q := st.remaining[st.current]
		if q < 0 {
			q = 0 // exhausted is exhausted; the exact debt is irrelevant
		}
		fmt.Fprintf(&b, "q%d|", q)
	}
	for i, m := range st.machines {
		k, ok := m.(machine.Keyer)
		if !ok {
			panic("hybrid: Key requires keyable machines")
		}
		fmt.Fprintf(&b, "m%x,%t,%t|", k.StateKey(), st.started[i], st.decided[i])
	}
	for _, v := range sim.Snapshot() {
		fmt.Fprintf(&b, "%x,", v)
	}
	return b.String()
}
