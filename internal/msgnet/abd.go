package msgnet

import (
	"fmt"

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

// tag orders writes: lexicographic on (TS, Writer).
type tag struct {
	TS     int64
	Writer int32
}

func (a tag) less(b tag) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Writer < b.Writer
}

// stored is a replica's state for one register.
type stored struct {
	Val uint32
	Tag tag
}

// Message payloads.

// queryReq asks a replica for its (value, tag) of register Reg. Requests
// travel as pooled pointers shared by all n deliveries of one broadcast;
// refs counts deliveries still outstanding (see respPool).
type queryReq struct {
	Op   int64 // client's operation sequence number
	Reg  register.ID
	refs int32
}

// queryResp answers a queryReq.
type queryResp struct {
	Op  int64
	Reg register.ID
	Cur stored
}

// updateReq asks a replica to adopt (Val, Tag) for Reg if newer. Pooled
// and refcounted exactly like queryReq.
type updateReq struct {
	Op   int64
	Reg  register.ID
	New  stored
	refs int32
}

// updateResp acknowledges an updateReq.
type updateResp struct {
	Op int64
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
	started bool
	decided bool
	failed  bool

	seq       int64 // operation sequence number
	phase     clientPhase
	acks      int
	best      stored
	pendingWr bool   // current op is a write
	wrVal     uint32 // value being written

	// Stats.
	ops      int64
	messages int64

	// out is the node's outgoing-message scratch: every handler builds
	// its batch here and the network copies the messages into its slab
	// before the next handler runs, so one buffer per node suffices and
	// broadcasts allocate nothing in steady state.
	out []Message

	// pool, when non-nil, recycles reply payloads (see respPool). All
	// nodes of one simulation share it.
	pool *respPool

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
// the replica map, the outgoing-message scratch, and the payload pool.
// A reset node behaves bit-identically to a fresh one.
func (a *ABDNode) Reset(id, n int, m machine.Machine) {
	a.id, a.n, a.majority = id, n, n/2+1
	if a.store == nil {
		a.store = make(map[register.ID]stored)
	} else {
		clear(a.store)
	}
	a.m = m
	a.op = machine.Op{}
	a.started, a.decided, a.failed = false, false, false
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

// respPool recycles the ABD emulation's message payloads — the allocation
// hot spot: every query/update broadcast is one request box plus one
// response box per replica, all boxed into Message interface payloads.
// A response is delivered to exactly one client (or dropped with a
// crashed receiver), so the receiver returns it here as soon as it has
// copied the fields it needs. A request box is shared by all n deliveries
// of its broadcast; its refs field counts deliveries still outstanding and
// the last receiver returns it. A crash-dropped delivery never decrements,
// so that box simply falls to the garbage collector — a missed recycle,
// never a double use. The pool is single-goroutine like the network's
// event loop itself.
type respPool struct {
	q  []*queryResp
	u  []*updateResp
	qr []*queryReq
	ur []*updateReq
}

// newQueryResp draws a queryResp from the pool (or the heap without one).
func (a *ABDNode) newQueryResp() *queryResp {
	if a.pool != nil {
		if n := len(a.pool.q); n > 0 {
			r := a.pool.q[n-1]
			a.pool.q = a.pool.q[:n-1]
			return r
		}
	}
	return new(queryResp)
}

// releaseQueryResp returns a delivered queryResp to the pool.
func (a *ABDNode) releaseQueryResp(r *queryResp) {
	if a.pool != nil {
		a.pool.q = append(a.pool.q, r)
	}
}

// newUpdateResp draws an updateResp from the pool.
func (a *ABDNode) newUpdateResp() *updateResp {
	if a.pool != nil {
		if n := len(a.pool.u); n > 0 {
			r := a.pool.u[n-1]
			a.pool.u = a.pool.u[:n-1]
			return r
		}
	}
	return new(updateResp)
}

// releaseUpdateResp returns a delivered updateResp to the pool.
func (a *ABDNode) releaseUpdateResp(r *updateResp) {
	if a.pool != nil {
		a.pool.u = append(a.pool.u, r)
	}
}

// newQueryReq draws a queryReq from the pool; the caller sets refs.
func (a *ABDNode) newQueryReq() *queryReq {
	if a.pool != nil {
		if n := len(a.pool.qr); n > 0 {
			r := a.pool.qr[n-1]
			a.pool.qr = a.pool.qr[:n-1]
			return r
		}
	}
	return new(queryReq)
}

// releaseQueryReq records one delivery of a broadcast queryReq and pools
// the box when the last outstanding delivery lands.
func (a *ABDNode) releaseQueryReq(r *queryReq) {
	r.refs--
	if r.refs == 0 && a.pool != nil {
		a.pool.qr = append(a.pool.qr, r)
	}
}

// newUpdateReq draws an updateReq from the pool; the caller sets refs.
func (a *ABDNode) newUpdateReq() *updateReq {
	if a.pool != nil {
		if n := len(a.pool.ur); n > 0 {
			r := a.pool.ur[n-1]
			a.pool.ur = a.pool.ur[:n-1]
			return r
		}
	}
	return new(updateReq)
}

// releaseUpdateReq records one delivery of a broadcast updateReq and
// pools the box when the last outstanding delivery lands.
func (a *ABDNode) releaseUpdateReq(r *updateReq) {
	r.refs--
	if r.refs == 0 && a.pool != nil {
		a.pool.ur = append(a.pool.ur, r)
	}
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

// Done implements Node.
func (a *ABDNode) Done() bool { return a.decided || a.failed }

// Start implements Node: begin the machine's first operation.
func (a *ABDNode) Start() []Message {
	a.op = a.m.Begin()
	a.started = true
	if a.rec != nil {
		a.rec.Append(trace.Event{Time: a.now(), Proc: int32(a.id), Kind: trace.KindStart})
	}
	return a.beginOp()
}

// beginOp launches the query phase for the current machine operation.
func (a *ABDNode) beginOp() []Message {
	a.seq++
	a.phase = phaseQuery
	a.acks = 0
	// The accumulator must start strictly below every replica tag —
	// including the zero tag carried by preloaded and never-written
	// registers — or the first response could tie instead of winning.
	a.best = stored{Tag: tag{TS: -1}}
	a.pendingWr = a.op.Kind == register.OpWrite
	a.wrVal = a.op.Val
	req := a.newQueryReq()
	req.Op, req.Reg, req.refs = a.seq, a.op.Reg, int32(a.n)
	return a.broadcast(req)
}

// broadcast sends payload to every process, including self (the loopback
// message also goes through the network so that replica state transitions
// are uniformly message-driven). The batch lives in the node's scratch
// buffer; the network consumes it before the next handler call.
func (a *ABDNode) broadcast(payload any) []Message {
	out := a.out[:0]
	for to := 0; to < a.n; to++ {
		out = append(out, Message{To: to, Payload: payload})
	}
	a.out = out
	a.messages += int64(a.n)
	return out
}

// reply sends one payload back to process to, through the scratch buffer.
func (a *ABDNode) reply(to int, payload any) []Message {
	a.out = append(a.out[:0], Message{To: to, Payload: payload})
	a.messages++
	return a.out
}

// Receive implements Node. Every payload travels as a pooled pointer and
// is released by its receiver the moment the fields are copied out:
// responses are delivered exactly once, so the recycle is safe by
// construction; request boxes are shared by all n deliveries of one
// broadcast and refcounted, so the last replica to answer returns them.
func (a *ABDNode) Receive(msg Message) []Message {
	switch p := msg.Payload.(type) {
	case *queryReq:
		resp := a.newQueryResp()
		resp.Op, resp.Reg, resp.Cur = p.Op, p.Reg, a.store[p.Reg]
		a.releaseQueryReq(p)
		return a.reply(msg.From, resp)

	case *updateReq:
		if cur, ok := a.store[p.Reg]; !ok || cur.Tag.less(p.New.Tag) {
			a.store[p.Reg] = p.New
		}
		resp := a.newUpdateResp()
		resp.Op = p.Op
		a.releaseUpdateReq(p)
		return a.reply(msg.From, resp)

	case *queryResp:
		op, cur := p.Op, p.Cur
		a.releaseQueryResp(p)
		if a.phase != phaseQuery || op != a.seq || a.Done() {
			return nil // stale
		}
		if a.best.Tag.less(cur.Tag) {
			a.best = cur
		}
		a.acks++
		if a.acks < a.majority {
			return nil
		}
		// Quorum reached: move to the update phase.
		a.phase = phaseUpdate
		a.acks = 0
		var next stored
		if a.pendingWr {
			next = stored{Val: a.wrVal, Tag: tag{TS: a.best.Tag.TS + 1, Writer: int32(a.id)}}
		} else {
			next = a.best // read write-back
		}
		a.best = next
		req := a.newUpdateReq()
		req.Op, req.Reg, req.New, req.refs = a.seq, a.op.Reg, next, int32(a.n)
		return a.broadcast(req)

	case *updateResp:
		op := p.Op
		a.releaseUpdateResp(p)
		if a.phase != phaseUpdate || op != a.seq || a.Done() {
			return nil // stale
		}
		a.acks++
		if a.acks < a.majority {
			return nil
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
			return nil
		case machine.Failed:
			a.failed = true
			return nil
		default:
			a.op = next
			return a.beginOp()
		}

	default:
		panic(fmt.Sprintf("msgnet: unknown payload %T", msg.Payload))
	}
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

// Interface compliance check.
var _ Node = (*ABDNode)(nil)
