package eventq

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// tieTimes is a small set of times that makes exact ties common and
// spans both zeros, both infinities, the largest finite magnitudes and
// subnormals.
var tieTimes = []float64{
	math.Inf(-1), -math.MaxFloat64, -2.5, -1, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
	1e-8, 0.5, 1, math.Nextafter(1, 2), 2.5, math.MaxFloat64, math.Inf(1),
}

// refTop returns the key a Tree should name as the winner: the earliest
// pending event among times, where a NaN entry marks an absent key.
func refTop(times []float64) (key int, ok bool) {
	key = -1
	for k, t := range times {
		if math.IsNaN(t) {
			continue
		}
		if key < 0 || refBefore(refEvent{t: t, key: uint32(k)}, refEvent{t: times[key], key: uint32(key)}) {
			key = k
		}
	}
	return key, key >= 0
}

// checkTree builds a tree over times (NaN = absent), then retimes or
// retires the winner as next directs until no key is pending, checking
// the winner against a linear scan after every step. next returns the
// winner's new time, or NaN to retire it.
func checkTree(t *testing.T, q *Tree, times []float64, next func() float64) {
	t.Helper()
	q.Reset(len(times))
	for k, tm := range times {
		if !math.IsNaN(tm) {
			q.Set(uint32(k), tm)
		}
	}
	q.Build()
	for step := 0; ; step++ {
		want, ok := refTop(times)
		if !ok {
			return
		}
		if got := q.Top(); int(got) != want {
			t.Fatalf("n=%d step %d: Top %d (t=%v), want %d (t=%v)", len(times), step, got, times[got], want, times[want])
		}
		tm := next()
		if math.IsNaN(tm) {
			q.Pop()
		} else {
			q.FixTop(tm)
		}
		times[want] = tm
	}
}

// TestTreeMatchesReference builds trees with some keys absent, then
// retimes or retires the winner until every key is retired, and checks
// the winner against a linear scan after every step. Times come mostly
// from tieTimes, so keys alone order many of the matches.
func TestTreeMatchesReference(t *testing.T) {
	var q Tree
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64, 65, 130} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			draw := func() float64 {
				if rng.Intn(4) == 0 {
					return rng.NormFloat64()
				}
				return tieTimes[rng.Intn(len(tieTimes))]
			}
			times := make([]float64, n)
			for k := range times {
				times[k] = draw()
				if rng.Intn(5) == 0 {
					times[k] = math.NaN()
				}
			}
			steps := 0
			checkTree(t, &q, times, func() float64 {
				if steps++; steps > 40*n || rng.Intn(8) == 0 {
					return math.NaN()
				}
				return draw()
			})
		}
	}
}

// FuzzTreeMatchesReference decodes a tree size, its initial times and a
// stream of winner updates from the input, and checks the winner against
// a linear scan after every step.
func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 0, 0, 255, 7, 9})
	f.Add([]byte{17, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5, 7, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%150 + 1
		data = data[1:]
		// Each byte picks a tie-set time; one past the set means absent
		// (initially) or retired (as an update).
		decode := func() float64 {
			if len(data) == 0 {
				return math.NaN()
			}
			b := int(data[0]) % (len(tieTimes) + 1)
			data = data[1:]
			if b == len(tieTimes) {
				return math.NaN()
			}
			return tieTimes[b]
		}
		times := make([]float64, n)
		for k := range times {
			times[k] = decode()
		}
		var q Tree
		checkTree(t, &q, times, decode)
	})
}

// TestTreeWarmAllocs checks that a tree with room allocates nothing to
// build and drain.
func TestTreeWarmAllocs(t *testing.T) {
	var q Tree
	q.Reset(64)
	allocs := testing.AllocsPerRun(100, func() {
		q.Reset(64)
		for k := uint32(0); k < 64; k++ {
			q.Set(k, float64(k%7))
		}
		q.Build()
		for i := 0; i < 64; i++ {
			q.FixTop(float64(i%5) + 7)
		}
		for i := 0; i < 64; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Reset/Set/Build/FixTop/Pop allocated %v times per run", allocs)
	}
}

// BenchmarkReplaceTop times one step of a renewal race over n processes
// on each structure: the earliest completion is replaced by the same
// process's next, an Exp(1) interval later.
func BenchmarkReplaceTop(b *testing.B) {
	for _, n := range []int{8, 64, 1024} {
		rng := rand.New(rand.NewSource(1))
		clock := make([]float64, n)
		for k := range clock {
			clock[k] = rng.ExpFloat64()
		}
		gaps := make([]float64, 1<<12)
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()
		}
		b.Run("heap/n="+strconv.Itoa(n), func(b *testing.B) {
			now := append([]float64(nil), clock...)
			var q Queue
			q.Reset(n)
			for k, t := range now {
				q.Push(t, uint32(k), 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, _ := q.Top()
				now[k] += gaps[i&(len(gaps)-1)]
				q.FixTop(now[k], k, 0)
			}
		})
		b.Run("tree/n="+strconv.Itoa(n), func(b *testing.B) {
			now := append([]float64(nil), clock...)
			var q Tree
			q.Reset(n)
			for k, t := range now {
				q.Set(uint32(k), t)
			}
			q.Build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := q.Top()
				now[k] += gaps[i&(len(gaps)-1)]
				q.FixTop(now[k])
			}
		})
	}
}
