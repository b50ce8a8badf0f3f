// Package register provides the shared-memory substrate: atomic
// read/write registers under the usual interleaving model, in which
// operations occur in a global sequence and each read returns the value of
// the last preceding write to the same location (paper, Section 3).
//
// Two implementations are provided. SimMem is a growable flat store used by
// the discrete-event simulator and the model checker, where atomicity is
// guaranteed by construction (the engine executes one operation at a time).
// AtomicMem is backed by sync/atomic values and is used by the live
// goroutine runtime, where the Go memory model provides the required
// per-register linearizability.
package register

import (
	"fmt"
	"sync/atomic"

	"leanconsensus/internal/cacheline"
)

// ID identifies a single shared register.
type ID int

// Mem is a bank of multi-writer multi-reader atomic registers holding
// 32-bit values. All registers are zero-initialized.
type Mem interface {
	// Read returns the current value of register id.
	Read(id ID) uint32
	// Write sets register id to v.
	Write(id ID, v uint32)
}

// SimMem is a sequential memory for simulated executions. It grows on
// demand so that the unbounded arrays of lean-consensus can be modeled
// directly. It is not safe for concurrent use; the simulation engines
// execute operations one at a time, which is exactly the interleaving
// semantics of the model.
type SimMem struct {
	cells []uint32
	_     [104]byte // to a cache-line block (internal/cacheline), as pooled memory
}

// NewSimMem returns a SimMem with capacity pre-allocated for hint
// registers. The memory still grows beyond the hint on demand.
func NewSimMem(hint int) *SimMem {
	if hint < 0 {
		hint = 0
	}
	return &SimMem{cells: cacheline.Make[uint32](hint)}
}

// Read implements Mem. Reading a register that has never been written
// returns 0, matching zero-initialized shared memory.
func (m *SimMem) Read(id ID) uint32 {
	if int(id) >= len(m.cells) {
		return 0
	}
	return m.cells[id]
}

// Write implements Mem, growing the store as needed.
func (m *SimMem) Write(id ID, v uint32) {
	if int(id) >= len(m.cells) {
		m.grow(int(id) + 1)
	}
	m.cells[id] = v
}

func (m *SimMem) grow(n int) {
	newCap := 2 * len(m.cells)
	if newCap < n {
		newCap = n
	}
	if newCap < 16 {
		newCap = 16
	}
	cells := cacheline.Make[uint32](newCap)
	copy(cells, m.cells)
	m.cells = cells
}

// Len reports the number of registers that have been materialized.
func (m *SimMem) Len() int { return len(m.cells) }

// Reset zeroes every materialized register while keeping the backing
// array, returning the memory to its freshly-constructed state without
// allocating. Pooled sessions call it between runs; callers that need an
// initialized prefix must re-run Layout.InitMem afterwards.
func (m *SimMem) Reset() {
	for i := range m.cells {
		m.cells[i] = 0
	}
}

// Grow ensures capacity for at least n registers without changing any
// values, so later writes below n cannot allocate.
func (m *SimMem) Grow(n int) {
	if n > len(m.cells) {
		m.grow(n)
	}
}

// Snapshot returns a copy of the materialized registers; used by the model
// checker to hash states and by tests to inspect memory.
func (m *SimMem) Snapshot() []uint32 {
	out := make([]uint32, len(m.cells))
	copy(out, m.cells)
	return out
}

// Clone returns an independent copy of the memory; used by the model
// checker to branch executions.
func (m *SimMem) Clone() *SimMem {
	return &SimMem{cells: m.Snapshot()}
}

// AtomicMem is a fixed-size memory backed by sync/atomic operations, used
// by the live goroutine runtime. Every register is an independent 32-bit
// atomic variable, which is a faithful implementation of a multi-writer
// multi-reader atomic register on modern hardware.
type AtomicMem struct {
	cells []atomic.Uint32
}

// NewAtomicMem returns an AtomicMem with n registers, all zero.
func NewAtomicMem(n int) *AtomicMem {
	return &AtomicMem{cells: make([]atomic.Uint32, n)}
}

// Read implements Mem.
func (m *AtomicMem) Read(id ID) uint32 { return m.cells[id].Load() }

// Write implements Mem.
func (m *AtomicMem) Write(id ID, v uint32) { m.cells[id].Store(v) }

// Len reports the number of registers.
func (m *AtomicMem) Len() int { return len(m.cells) }

// Interface compliance checks.
var (
	_ Mem = (*SimMem)(nil)
	_ Mem = (*AtomicMem)(nil)
)

// OpKind distinguishes reads from writes in recorded histories.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Event is one operation in a recorded history: process proc performed a
// read or write on register Reg; Val is the value read or written. Seq is
// the position in the global linearization order and Time is the simulated
// time at which the operation occurred (zero when the driver is untimed).
type Event struct {
	Seq  int64
	Time float64
	Proc int
	Kind OpKind
	Reg  ID
	Val  uint32
}

// History records the global linearization of operations in a simulated
// execution. The simulation engines append to it when recording is
// enabled; invariant checkers consume it.
type History struct {
	Events []Event
}

// Append adds an event, assigning its sequence number.
func (h *History) Append(ev Event) {
	ev.Seq = int64(len(h.Events))
	h.Events = append(h.Events, ev)
}

// Len reports the number of recorded events.
func (h *History) Len() int { return len(h.Events) }

// Recorder wraps a Mem and appends every operation by a fixed process to a
// History. The untimed drivers (machine.Run, modelcheck) use it; the
// discrete-event engine records directly because it knows the time.
type Recorder struct {
	Base Mem
	Hist *History
	Proc int
}

// Read implements Mem.
func (r *Recorder) Read(id ID) uint32 {
	v := r.Base.Read(id)
	r.Hist.Append(Event{Proc: r.Proc, Kind: OpRead, Reg: id, Val: v})
	return v
}

// Write implements Mem.
func (r *Recorder) Write(id ID, v uint32) {
	r.Base.Write(id, v)
	r.Hist.Append(Event{Proc: r.Proc, Kind: OpWrite, Reg: id, Val: v})
}

var _ Mem = (*Recorder)(nil)
