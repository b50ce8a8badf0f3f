// Package eventq is the event queue of the discrete-event simulators: a
// binary min-heap of pending events, ordered by time and then by a key.
// In the noisy-scheduling model every process is a delayed renewal
// process, and a run merges them by taking the earliest pending event
// over and over; sched files one event per live process (key = process),
// msgnet one per message in flight (key = send sequence).
//
// An item is 16 bytes: the order-preserving unsigned image of its time
// and key<<32 | ref, where ref is the caller's handle (msgnet's slot in
// its message slab). Comparing two items is then one 128-bit
// subtraction, two bits.Sub64 calls whose final borrow is the answer, so
// the sift-down picks the smaller child without a branch the CPU would
// have to predict. The order equals the float order of times with ties
// broken by the smaller key: −0 and +0 are the same time. Keys must be
// unique among queued items, which makes the order strict and total, so
// the sequence of minima does not depend on how the heap is arranged.
// Times must not be NaN.
package eventq

import (
	"math"
	"math/bits"

	"leanconsensus/internal/cacheline"
)

// item is one pending event.
type item struct {
	t  uint64 // order-preserving image of the time
	kr uint64 // key<<32 | ref
}

// image maps a time to an unsigned integer with the same order. Adding 0
// folds −0 into +0; a positive time gets its sign bit set, and a negative
// one has every bit flipped, so larger magnitudes sort lower.
func image(t float64) uint64 {
	b := math.Float64bits(t + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// less returns 1 when a orders before b and 0 otherwise: the borrow out
// of the 128-bit subtraction (a.t, a.kr) − (b.t, b.kr).
func less(a, b item) uint64 {
	_, borrow := bits.Sub64(a.kr, b.kr, 0)
	_, borrow = bits.Sub64(a.t, b.t, borrow)
	return borrow
}

// Queue is a min-heap of events. The zero value is an empty queue. A
// Queue is reusable: Reset empties it and keeps its backing array, so a
// warm queue allocates nothing.
type Queue struct {
	h []item
}

// Reset empties the queue and makes room for capacity items without
// further allocation.
func (q *Queue) Reset(capacity int) {
	if cap(q.h) < capacity {
		q.h = cacheline.Make[item](capacity)[:0] // a pooled queue's slab
		return
	}
	q.h = q.h[:0]
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.h) }

// Top returns the key and ref of the earliest event. The queue must not
// be empty.
func (q *Queue) Top() (key, ref uint32) {
	kr := q.h[0].kr
	return uint32(kr >> 32), uint32(kr)
}

// Push adds an event at time t, moving a hole up from the new leaf
// instead of swapping.
func (q *Queue) Push(t float64, key, ref uint32) {
	it := item{image(t), uint64(key)<<32 | uint64(ref)}
	q.h = append(q.h, it)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if less(it, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// FixTop replaces the earliest event with one at time t: the step of a
// simulation whose handled event schedules the next one costs a single
// sift-down. The queue must not be empty.
func (q *Queue) FixTop(t float64, key, ref uint32) {
	q.siftDown(item{image(t), uint64(key)<<32 | uint64(ref)})
}

// Pop removes the earliest event. The queue must not be empty.
func (q *Queue) Pop() {
	last := len(q.h) - 1
	it := q.h[last]
	q.h = q.h[:last]
	if last > 0 {
		q.siftDown(it)
	}
}

// siftDown puts it at the root and moves the hole down to where it
// belongs. Where a node has two children, the smaller is chosen by adding
// the borrow of their comparison to the left child's index.
func (q *Queue) siftDown(it item) {
	h := q.h
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c+1 >= n {
			// At most one child: the last level's left edge.
			if c < n && less(h[c], it) != 0 {
				h[i] = h[c]
				i = c
			}
			break
		}
		c += int(less(h[c+1], h[c]))
		if less(h[c], it) == 0 {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}
