package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// SummaryBuckets is the sketch width of a Summary: unit-width buckets
// [0,1), [1,2), ... [SummaryBuckets-1, SummaryBuckets) plus one implicit
// overflow bucket. Rounds-to-decide are Θ(log n), so even a 100,000-process
// instance sits far inside the range and integer-valued samples get exact
// percentiles.
const SummaryBuckets = 256

// Summary is a mergeable streaming summary: Welford mean/variance (the
// same recurrence as Acc, so folds over identical sample sequences are
// bit-identical), min/max, and a fixed-size unit-bucket sketch for
// percentiles. Unlike Acc it can be merged with another Summary and
// round-trips exactly through JSON, which is what lets a campaign
// checkpoint carry finished cells across process restarts without
// perturbing a single bit of the final report. Memory is O(1) per
// summary regardless of sample count — the campaign aggregator's
// building block.
//
// The percentile sketch counts samples into unit-width integer buckets
// clamped to [0, SummaryBuckets]; for non-negative integer-valued samples
// under SummaryBuckets (rounds, operation counts per process at sane
// sizes) Percentile is exact, and saturates at SummaryBuckets otherwise.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
	buckets  [SummaryBuckets + 1]int64
}

// Add incorporates one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += float64(d * (x - s.mean))
	s.buckets[bucketOf(x)]++
}

// bucketOf clamps a sample into the sketch.
func bucketOf(x float64) int {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x >= SummaryBuckets {
		return SummaryBuckets
	}
	return int(x)
}

// Merge folds o into s. Counts, min/max, and the sketch merge exactly;
// mean and variance use the pairwise (Chan et al.) update, which is
// algebraically exact and numerically stable but — like any floating-point
// reduction — depends on merge order at the last ulp. Callers that need
// bit-identical results across runs must merge in a deterministic order.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.mean += delta * float64(o.n) / float64(n)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.n = n
	for i := range s.buckets {
		s.buckets[i] += o.buckets[i]
	}
}

// N reports the number of samples.
func (s *Summary) N() int64 { return s.n }

// Mean reports the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Var reports the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std reports the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr reports the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 reports the half-width of a 95% normal-approximation confidence
// interval on the mean.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

// Min reports the smallest sample (0 with no samples).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest sample (0 with no samples).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Percentile reports the p-th percentile (0 <= p <= 100) from the sketch:
// the smallest bucket value whose cumulative count covers p percent of
// the samples (the nearest-rank definition). For integer-valued samples
// in [0, SummaryBuckets) it is exact; samples past the sketch saturate at
// SummaryBuckets. It returns 0 with no samples.
func (s *Summary) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.buckets {
		cum += c
		if cum >= rank {
			return float64(i)
		}
	}
	return float64(SummaryBuckets)
}

// String summarizes the summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g (95%% CI) min=%.4g max=%.4g p50=%g p99=%g",
		s.n, s.Mean(), s.CI95(), s.Min(), s.Max(), s.Percentile(50), s.Percentile(99))
}

// summaryWire is the JSON form of a Summary. Buckets are stored with
// trailing zeros trimmed; float64 fields round-trip exactly through
// encoding/json, so a summary restored from a checkpoint reproduces the
// original bit for bit.
type summaryWire struct {
	N       int64   `json:"n"`
	Mean    float64 `json:"mean"`
	M2      float64 `json:"m2"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s *Summary) MarshalJSON() ([]byte, error) {
	w := summaryWire{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
	hi := len(s.buckets)
	for hi > 0 && s.buckets[hi-1] == 0 {
		hi--
	}
	if hi > 0 {
		w.Buckets = s.buckets[:hi]
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Summary) UnmarshalJSON(b []byte) error {
	var w summaryWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Buckets) > SummaryBuckets+1 {
		return fmt.Errorf("stats: summary sketch has %d buckets, maximum is %d", len(w.Buckets), SummaryBuckets+1)
	}
	var total int64
	for _, c := range w.Buckets {
		if c < 0 {
			return fmt.Errorf("stats: summary sketch has a negative bucket count")
		}
		total += c
	}
	if total != w.N {
		return fmt.Errorf("stats: summary sketch counts %d samples, header says %d", total, w.N)
	}
	*s = Summary{n: w.N, mean: w.Mean, m2: w.M2, min: w.Min, max: w.Max}
	copy(s.buckets[:], w.Buckets)
	return nil
}
