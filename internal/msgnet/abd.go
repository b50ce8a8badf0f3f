package msgnet

import (
	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
	"leanconsensus/internal/trace"
)

// This file implements the ABD (Attiya-Bar-Noy-Dolev) emulation of
// multi-writer multi-reader atomic registers over asynchronous message
// passing with a crash-prone minority, and drives an arbitrary
// machine.Machine (in this repository: lean-consensus and the combined
// protocol) against the emulated registers.
//
// Every process plays two roles:
//
//   - replica: stores (value, tag) per register, where tag = (timestamp,
//     writer id) ordered lexicographically, and answers query/update
//     messages;
//   - client: executes its machine's operations. A write queries a
//     majority for the latest timestamp, then updates a majority with an
//     incremented tag. A read queries a majority, selects the maximum
//     tag, writes it back to a majority (the read must "help" so later
//     reads cannot see older values), and returns the value.
//
// With any majority of processes live, every operation terminates, and
// the emulated registers are linearizable — which is all the safety
// proofs of lean-consensus need.

// stored is a replica's state for one register: a value and its tag,
// the pair (TS, Writer) that orders writes lexicographically.
type stored struct {
	TS     int64
	Writer int32
	Val    uint32
}

// older reports whether a's tag orders before b's.
func (a stored) older(b stored) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Writer < b.Writer
}

// clientPhase tracks the two-phase structure of an ABD operation.
type clientPhase uint8

const (
	phaseIdle clientPhase = iota
	phaseQuery
	phaseUpdate
)

// ABDNode is one process: replica state + client driver for a machine.
type ABDNode struct {
	id, n    int
	majority int

	// Replica state.
	store map[register.ID]stored

	// Client state.
	m       machine.Machine
	op      machine.Op
	decided bool
	failed  bool

	seq       uint32 // operation sequence number
	phase     clientPhase
	acks      int
	best      stored
	pendingWr bool   // current op is a write
	wrVal     uint32 // value being written

	// Stats.
	ops      int64
	messages int64

	// Flight recorder (nil when tracing is off). now reads the network's
	// simulated clock; prevRound tracks the machine's last traced round.
	rec       *trace.Recorder
	now       func() float64
	prevRound int32
}

// NewABDNode builds process id of n running machine m.
func NewABDNode(id, n int, m machine.Machine) *ABDNode {
	a := &ABDNode{}
	a.Reset(id, n, m)
	return a
}

// Reset re-arms the node as process id of n running machine m, keeping
// the replica map. A reset node behaves bit-identically to a fresh one.
func (a *ABDNode) Reset(id, n int, m machine.Machine) {
	a.id, a.n, a.majority = id, n, n/2+1
	if a.store == nil {
		a.store = make(map[register.ID]stored)
	} else {
		clear(a.store)
	}
	a.m = m
	a.op = machine.Op{}
	a.decided, a.failed = false, false
	a.seq = 0
	a.phase = phaseIdle
	a.acks = 0
	a.best = stored{}
	a.pendingWr = false
	a.wrVal = 0
	a.ops, a.messages = 0, 0
	a.rec, a.now = nil, nil
	a.prevRound = 0
}

// Decided reports whether the machine has decided.
func (a *ABDNode) Decided() bool { return a.decided }

// Failed reports whether the machine aborted.
func (a *ABDNode) Failed() bool { return a.failed }

// Decision returns the machine's decision (valid when Decided).
func (a *ABDNode) Decision() int { return a.m.Decision() }

// Ops reports completed register operations.
func (a *ABDNode) Ops() int64 { return a.ops }

// Messages reports messages sent by this node.
func (a *ABDNode) Messages() int64 { return a.messages }

// Machine exposes the driven machine (for round reporting).
func (a *ABDNode) Machine() machine.Machine { return a.m }

// Preload installs initial replica state for a register at the zero tag
// (older than any write). The algorithm's read-only prefix locations are
// established this way before the network starts.
func (a *ABDNode) Preload(id register.ID, val uint32) {
	a.store[id] = stored{Val: val}
}

// Done reports whether the node has finished its work; the network stops
// when every live node is done (or no messages remain).
func (a *ABDNode) Done() bool { return a.decided || a.failed }

// Start begins the machine's first operation; the network calls it once,
// at the node's (dithered) start time.
func (a *ABDNode) Start() Message {
	a.op = a.m.Begin()
	if a.rec != nil {
		a.rec.Append(trace.Event{Time: a.now(), Proc: int32(a.id), Kind: trace.KindStart})
	}
	return a.beginOp()
}

// beginOp launches the query phase for the current machine operation.
func (a *ABDNode) beginOp() Message {
	a.seq++
	a.phase = phaseQuery
	a.acks = 0
	// The accumulator must start strictly below every replica tag —
	// including the zero tag carried by preloaded and never-written
	// registers — or the first response could tie instead of winning.
	a.best = stored{TS: -1}
	a.pendingWr = a.op.Kind == register.OpWrite
	a.wrVal = a.op.Val
	return a.broadcast(Message{kind: queryReq, op: a.seq, reg: a.op.Reg})
}

// broadcast addresses m to every process, including self (the loopback
// message also goes through the network so that replica state transitions
// are uniformly message-driven).
func (a *ABDNode) broadcast(m Message) Message {
	m.to = broadcast
	a.messages += int64(a.n)
	return m
}

// reply addresses m to process to.
func (a *ABDNode) reply(to int32, m Message) Message {
	m.to = to
	a.messages++
	return m
}

// Receive handles the delivered message m, which it must not retain, and
// returns the one this node sends in answer, if any.
func (a *ABDNode) Receive(m *Message) Message {
	switch m.kind {
	case queryReq:
		return a.reply(m.from, Message{kind: queryResp, op: m.op, reg: m.reg, val: a.store[m.reg]})

	case updateReq:
		if cur, ok := a.store[m.reg]; !ok || cur.older(m.val) {
			a.store[m.reg] = m.val
		}
		return a.reply(m.from, Message{kind: updateResp, op: m.op})

	case queryResp:
		if a.phase != phaseQuery || m.op != a.seq || a.Done() {
			return Message{} // stale
		}
		if a.best.older(m.val) {
			a.best = m.val
		}
		a.acks++
		if a.acks < a.majority {
			return Message{}
		}
		// Quorum reached: move to the update phase.
		a.phase = phaseUpdate
		a.acks = 0
		// A write installs the next tag; a read writes back what it found.
		if a.pendingWr {
			a.best = stored{TS: a.best.TS + 1, Writer: int32(a.id), Val: a.wrVal}
		}
		return a.broadcast(Message{kind: updateReq, op: a.seq, reg: a.op.Reg, val: a.best})

	case updateResp:
		if a.phase != phaseUpdate || m.op != a.seq || a.Done() {
			return Message{} // stale
		}
		a.acks++
		if a.acks < a.majority {
			return Message{}
		}
		// Operation complete: feed the machine.
		a.phase = phaseIdle
		a.ops++
		var result uint32
		if !a.pendingWr {
			result = a.best.Val
		}
		next, st := a.m.Step(result)
		if a.rec != nil {
			a.traceStep(result, st)
		}
		switch st {
		case machine.Decided:
			a.decided = true
		case machine.Failed:
			a.failed = true
		default:
			a.op = next
			return a.beginOp()
		}
	}
	return Message{}
}

// traceStep records one completed emulated register operation and any
// round transition, decision, or abort it produced.
func (a *ABDNode) traceStep(result uint32, st machine.Status) {
	t := a.now()
	round := a.prevRound
	if r, ok := a.m.(machine.Rounder); ok {
		round = int32(r.Round())
	}
	val := result
	if a.pendingWr {
		val = a.wrVal
	}
	a.rec.Append(trace.Event{
		Time: t, Step: a.ops, Proc: int32(a.id), Round: round, Value: int32(val), Kind: trace.KindOp,
	})
	if round > a.prevRound {
		a.prevRound = round
		a.rec.Append(trace.Event{
			Time: t, Proc: int32(a.id), Round: round, Value: -1, Kind: trace.KindRound,
		})
	}
	switch st {
	case machine.Decided:
		a.rec.Append(trace.Event{
			Time: t, Step: a.ops, Proc: int32(a.id), Round: round,
			Value: int32(a.m.Decision()), Kind: trace.KindDecide,
		})
	case machine.Failed:
		a.rec.Append(trace.Event{
			Time: t, Step: a.ops, Proc: int32(a.id), Round: round, Kind: trace.KindHalt,
		})
	}
}
