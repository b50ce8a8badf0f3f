// Package msgnet answers the paper's Section 10 question "can a noisy
// scheduling assumption be used to solve consensus quickly in an
// asynchronous message-passing model?" constructively: it provides an
// asynchronous message-passing network with noisy delivery delays and
// crash failures, an ABD-style emulation of multi-writer multi-reader
// atomic registers over that network (Attiya-Bar-Noy-Dolev), and a driver
// that runs the unchanged lean-consensus state machines on top of the
// emulated registers.
//
// The network is a discrete-event simulation: each message is delivered
// at send time + link delay + noise, with noise drawn i.i.d. from a
// configurable distribution — the message-passing analogue of the noisy
// scheduling model. Crashed processes stop sending, receiving and
// stepping; the ABD emulation tolerates any minority of crashes.
package msgnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/eventq"
	"leanconsensus/internal/register"
	"leanconsensus/internal/xrand"
)

// Message is one ABD message: a plain 40-byte value the network copies
// into its slab. A node answers each delivery with at most one Message: a
// reply, one addressed to every process (to == broadcast), or the zero
// Message, which sends nothing.
type Message struct {
	kind     kind
	from, to int32
	// op is the client's operation number. 32 bits suffice: every
	// operation sends at least two messages, and a run sends fewer than
	// 2³² (the network's send sequence).
	op  uint32
	reg register.ID
	val stored // a query's answer or an update's new state
}

// kind tells requests from responses, and queries from updates.
type kind uint8

const (
	none       kind = iota // nothing to send
	queryReq               // ask a replica for its state of reg
	queryResp              // answer a queryReq with the replica's state
	updateReq              // ask a replica to adopt val if its tag is newer
	updateResp             // acknowledge an updateReq
)

// broadcast addresses a Message to every process, the sender included.
const broadcast = -1

// Config describes a network simulation.
type Config struct {
	// Nodes are the participants; index = process id.
	Nodes []*ABDNode
	// Delay is the noise distribution on message delivery (required).
	Delay dist.Distribution
	// LinkDelay, when non-nil, adds a deterministic per-link delay
	// (adversary analogue of the Δ terms).
	LinkDelay func(from, to int) float64
	// CrashAt, when non-nil, maps a process id to the simulated time at
	// which it crashes (negative or absent = never). Crashed processes
	// neither send nor receive after that time.
	CrashAt map[int]float64
	// Seed fixes all randomness.
	Seed uint64
	// MaxMessages aborts runaway simulations (0 = generous default).
	MaxMessages int64
	// DitherScale perturbs node start times (0 selects 1e-8).
	DitherScale float64
}

// Result summarizes a network run.
type Result struct {
	// Delivered counts delivered messages.
	Delivered int64
	// Dropped counts messages lost to crashed endpoints.
	Dropped int64
	// Time is the simulated time of the last event.
	Time float64
	// AllDone reports whether every live node finished.
	AllDone bool
}

// Network runs a message-passing simulation. Every message in flight
// sits in a slab slot with its delivery time, and the event queue files
// it by (delivery time, send sequence) with ref = its slot. The send
// sequence is unique per message, so the order is strict and total, and
// messages due at exactly the same time arrive in send order.
//
// A Network is reusable: Reset re-arms it for a new configuration while
// keeping the queue, the slab and the per-process RNG streams pooled, so
// steady-state reruns (the engine's session path) allocate nothing here.
type Network struct {
	cfg   Config
	queue eventq.Queue
	slab  []flight // messages in flight, indexed by the queue's ref
	free  []uint32 // slab slots whose message was delivered or dropped
	srcs  []*xrand.Source
	rngs  []*rand.Rand
	seq   uint32 // send sequence of the last message, the queue's key
	now   float64
	stats Result
}

// flight is one message in flight and its delivery time.
type flight struct {
	t   float64
	msg Message
}

// ErrBadConfig reports an invalid Config.
var ErrBadConfig = errors.New("msgnet: invalid config")

// NewNetwork validates the configuration.
func NewNetwork(cfg Config) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset validates cfg and re-arms the network for a fresh run. The RNG
// streams are reseeded to exactly what NewNetwork would create, so a
// reset network replays bit-identically to a fresh one.
func (n *Network) Reset(cfg Config) error {
	if len(cfg.Nodes) == 0 {
		return fmt.Errorf("%w: need nodes", ErrBadConfig)
	}
	if cfg.Delay == nil {
		return fmt.Errorf("%w: Delay distribution required", ErrBadConfig)
	}
	n.cfg = cfg
	// Room for 2n² messages in flight, so a fresh run grows neither the
	// queue nor the slab: ABD keeps at most one broadcast of n messages
	// per node in its current phase, plus stragglers from earlier ones.
	capacity := 2 * len(cfg.Nodes) * len(cfg.Nodes)
	n.queue.Reset(capacity)
	if cap(n.slab) < capacity {
		n.slab = make([]flight, 0, capacity)
		n.free = make([]uint32, 0, capacity)
	} else {
		n.slab = n.slab[:0]
		n.free = n.free[:0]
	}
	n.seq = 0
	n.now = 0
	n.stats = Result{}
	for i := 0; i < len(cfg.Nodes); i++ {
		if i < len(n.srcs) {
			n.srcs[i].Reset(cfg.Seed, 0x6d736e, uint64(i))
		} else {
			src := xrand.NewSource(cfg.Seed, 0x6d736e, uint64(i))
			n.srcs = append(n.srcs, src)
			n.rngs = append(n.rngs, rand.New(src))
		}
	}
	return nil
}

// crashed reports whether process i has crashed by time t.
func (n *Network) crashed(i int, t float64) bool {
	if len(n.cfg.CrashAt) == 0 {
		return false // Sim always passes a map, empty unless it crashes someone
	}
	ct, ok := n.cfg.CrashAt[i]
	return ok && ct >= 0 && t >= ct
}

// send files the message m that process from sends at time t; a
// broadcast becomes one delivery per process, in process order, each with
// its own delay drawn from the sender's stream. With atRoot set, the
// queue's root is the delivery being handled: the first delivery replaces
// it with one sift-down, and sending nothing pops it.
func (n *Network) send(from int, t float64, m *Message, atRoot bool) error {
	if m.kind == none {
		if atRoot {
			n.queue.Pop()
		}
		return nil
	}
	first, last := int(m.to), int(m.to)
	if m.to == broadcast {
		first, last = 0, len(n.cfg.Nodes)-1
	}
	for to := first; to <= last; to++ {
		d := n.cfg.Delay.Sample(n.rngs[from])
		if n.cfg.LinkDelay != nil {
			d += n.cfg.LinkDelay(from, to)
		}
		if !(d >= 0) {
			return fmt.Errorf("%w: delivery delay %v from process %d to %d", ErrBadConfig, d, from, to)
		}
		if n.seq == math.MaxUint32 {
			return fmt.Errorf("msgnet: more than %d messages sent; runaway protocol?", n.seq)
		}
		n.seq++
		at := t + d
		slot := n.hold(at, m, from, to)
		if atRoot {
			n.queue.FixTop(at, n.seq, slot)
			atRoot = false
		} else {
			n.queue.Push(at, n.seq, slot)
		}
	}
	return nil
}

// hold puts a copy of m, addressed from process from to process to and
// due at time t, in a free slab slot and returns the slot.
func (n *Network) hold(t float64, m *Message, from, to int) uint32 {
	var slot uint32
	if k := len(n.free); k > 0 {
		slot = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		slot = uint32(len(n.slab))
		n.slab = append(n.slab, flight{})
	}
	f := &n.slab[slot]
	f.t, f.msg = t, *m
	f.msg.from, f.msg.to = int32(from), int32(to)
	return slot
}

// Run executes the simulation until quiescence.
func (n *Network) Run() (Result, error) {
	maxMessages := n.cfg.MaxMessages
	if maxMessages == 0 {
		maxMessages = 10_000_000
	}
	dither := n.cfg.DitherScale
	if dither == 0 {
		dither = 1e-8
	}

	// Node starts.
	for i, node := range n.cfg.Nodes {
		t := xrand.Dither(n.rngs[i], dither)
		if n.crashed(i, t) {
			continue
		}
		m := node.Start()
		if err := n.send(i, t, &m, false); err != nil {
			return Result{}, err
		}
	}

	for n.queue.Len() > 0 {
		_, slot := n.queue.Top()
		// The receiver reads the message in its slab slot. The slot is
		// free from here on, but only the reply's first delivery can take
		// it, once the receiver is done.
		t, msg := n.slab[slot].t, &n.slab[slot].msg
		to := int(msg.to)
		n.free = append(n.free, slot)
		n.now = t
		n.stats.Time = t
		// Messages already in flight when the sender crashes are still
		// delivered (the network is not the failed component); only a
		// crashed receiver loses messages.
		if n.crashed(to, t) {
			n.stats.Dropped++
			n.queue.Pop()
			continue
		}
		n.stats.Delivered++
		if n.stats.Delivered > maxMessages {
			return Result{}, fmt.Errorf("msgnet: more than %d messages; runaway protocol?", maxMessages)
		}
		// The delivery stays at the root until the receiver's first
		// message takes its place.
		reply := n.cfg.Nodes[to].Receive(msg)
		if err := n.send(to, t, &reply, true); err != nil {
			return Result{}, err
		}
	}

	n.stats.AllDone = true
	for i, node := range n.cfg.Nodes {
		if !n.crashed(i, n.now) && !node.Done() {
			n.stats.AllDone = false
		}
	}
	return n.stats, nil
}
