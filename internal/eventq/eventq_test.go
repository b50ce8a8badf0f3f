package eventq

import (
	"math"
	"math/rand"
	"testing"
)

// refEvent is one event of the reference queue.
type refEvent struct {
	t        float64
	key, ref uint32
}

// refBefore is the rule the simulators order events by: the smaller
// time first and, on equal times, the smaller key.
func refBefore(a, b refEvent) bool {
	return a.t < b.t || (a.t == b.t && a.key < b.key)
}

// refMin returns the index of the reference queue's earliest event.
func refMin(evs []refEvent) int {
	m := 0
	for i := range evs[1:] {
		if refBefore(evs[i+1], evs[m]) {
			m = i + 1
		}
	}
	return m
}

// TestQueueMatchesReference interleaves Push, FixTop and Pop on a Queue
// and on a linear-scan reference, and checks after every step that both
// agree on the earliest event. Times are drawn from a small set so that
// exact ties are common, and include negative times, both zeros and both
// infinities; keys are drawn around 0 and just below 2^32.
func TestQueueMatchesReference(t *testing.T) {
	times := []float64{
		math.Inf(-1), -math.MaxFloat64, -2.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		1e-8, 0.5, 1, math.Nextafter(1, 2), 2.5, math.MaxFloat64, math.Inf(1),
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref []refEvent
		used := map[uint32]bool{}
		freshKey := func() uint32 {
			for {
				k := uint32(rng.Intn(64))
				if rng.Intn(2) == 0 {
					k = math.MaxUint32 - k
				}
				if !used[k] {
					used[k] = true
					return k
				}
			}
		}
		draw := func() refEvent {
			tm := times[rng.Intn(len(times))]
			if rng.Intn(4) == 0 {
				tm = rng.NormFloat64()
			}
			return refEvent{t: tm, key: freshKey(), ref: rng.Uint32()}
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(3); {
			case len(ref) == 0 || op == 0 && len(ref) < 100:
				ev := draw()
				q.Push(ev.t, ev.key, ev.ref)
				ref = append(ref, ev)
			case op == 1:
				m := refMin(ref)
				delete(used, ref[m].key)
				ev := draw()
				q.FixTop(ev.t, ev.key, ev.ref)
				ref[m] = ev
			default:
				m := refMin(ref)
				delete(used, ref[m].key)
				q.Pop()
				ref = append(ref[:m], ref[m+1:]...)
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, reference holds %d", seed, step, q.Len(), len(ref))
			}
			if len(ref) == 0 {
				continue
			}
			want := ref[refMin(ref)]
			if key, r := q.Top(); key != want.key || r != want.ref {
				t.Fatalf("seed %d step %d: Top (key %d, ref %d), want (key %d, ref %d) at t=%v",
					seed, step, key, r, want.key, want.ref, want.t)
			}
		}
	}
}

// TestQueueWarmAllocs checks that a queue with room allocates nothing on
// any operation.
func TestQueueWarmAllocs(t *testing.T) {
	var q Queue
	q.Reset(64)
	allocs := testing.AllocsPerRun(100, func() {
		q.Reset(64)
		for i := uint32(0); i < 64; i++ {
			q.Push(float64(i%7), i, i)
		}
		for i := uint32(0); i < 64; i++ {
			q.FixTop(float64(i%5)+7, 64+i, i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Push/FixTop/Pop allocated %v times per run", allocs)
	}
}
