package eventq

import (
	"math"

	"leanconsensus/internal/cacheline"
)

// Tree is a tournament tree of losers over the keys 0..n-1, each holding
// at most one pending event, where only the earliest event is ever
// replaced or removed: replacement selection (Knuth, TAOCP Vol. 3,
// §5.4.1). That is sched's traffic — every live process has one pending
// completion and every step reschedules or retires the earliest — and it
// costs one comparison per level, where a heap's sift-down costs two.
//
// The leaves are padded to a power of two, m. An absent or retired key
// holds the time image MaxUint64, which orders after every time, +Inf
// included. The order is the Queue's, so the sequence of winners equals a
// heap's sequence of minima over the same events. A Tree is reusable:
// Reset keeps its slab, so a warm tree allocates nothing.
type Tree struct {
	// node[0] is the winner and node[j], 1 ≤ j < m, the loser of the match
	// at internal node j, whose children are 2j and 2j+1. Leaf k is slot
	// m+k, read only by Build.
	node []item
}

// absent is the time image of a key with no pending event.
const absent = math.MaxUint64

// Reset makes every key in 0..n-1 absent, ready for Set and Build.
func (q *Tree) Reset(n int) {
	m := 1
	for m < n {
		m *= 2
	}
	if cap(q.node) < 2*m {
		q.node = cacheline.Make[item](2 * m) // a pooled tree's slab
	}
	q.node = q.node[:2*m]
	for k := range m {
		q.node[m+k] = item{absent, uint64(k) << 32}
	}
}

// Set gives key a pending event at time t. It is valid only between
// Reset and Build.
func (q *Tree) Set(key uint32, t float64) {
	q.node[len(q.node)/2+int(key)].t = image(t)
}

// Build plays the tournament over the leaves in O(m): a pass from the
// bottom up files each match's winner, then a pass from the top down
// replaces it with the match's loser.
func (q *Tree) Build() {
	node := q.node
	m := len(node) / 2
	for j := m - 1; j > 0; j-- {
		node[j], _ = order(node[2*j], node[2*j+1])
	}
	node[0] = node[1]
	for j := 1; j < m; j++ {
		_, node[j] = order(node[2*j], node[2*j+1])
	}
}

// Top returns the key of the earliest event, or of a retired key when
// none is pending.
func (q *Tree) Top() uint32 { return uint32(q.node[0].kr >> 32) }

// FixTop gives the earliest event's key a new event at time t.
func (q *Tree) FixTop(t float64) { q.replay(image(t)) }

// Pop retires the earliest event's key.
func (q *Tree) Pop() { q.replay(absent) }

// replay files time image t for the winner's key and replays its matches
// from the leaf to the root: at each node the earlier of the two goes on
// and the later stays, selected by a mask, so the walk has no branch
// beyond its loop.
func (q *Tree) replay(t uint64) {
	node := q.node
	x := item{t, node[0].kr}
	for j := (len(node)/2 + int(x.kr>>32)) >> 1; j > 0; j >>= 1 {
		x, node[j] = order(x, node[j])
	}
	node[0] = x
}

// order returns a and b earlier first. The borrow of their comparison,
// negated, is a mask that swaps them when b is earlier.
func order(a, b item) (lo, hi item) {
	mask := -less(b, a)
	dt := (a.t ^ b.t) & mask
	dkr := (a.kr ^ b.kr) & mask
	return item{a.t ^ dt, a.kr ^ dkr}, item{b.t ^ dt, b.kr ^ dkr}
}
