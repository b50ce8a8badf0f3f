// Package stats provides the small statistical toolkit used by the
// experiment harness: streaming moments, confidence intervals,
// percentiles, histograms, and least-squares fits against log n (the shape
// check for the paper's Θ(log n) bounds).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Acc is a streaming accumulator using Welford's algorithm: numerically
// stable mean and variance without storing samples.
type Acc struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
func (a *Acc) Add(x float64) {
	// Add inlines, so without this rounding arm64 fuses a caller's
	// product, as in Add(s*1e6), into x - a.mean below.
	x = float64(x)
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += float64(d * (x - a.mean))
}

// N reports the number of samples.
func (a *Acc) N() int64 { return a.n }

// Mean reports the sample mean (0 with no samples).
func (a *Acc) Mean() float64 { return a.mean }

// Var reports the unbiased sample variance.
func (a *Acc) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std reports the sample standard deviation.
func (a *Acc) Std() float64 { return math.Sqrt(a.Var()) }

// StdErr reports the standard error of the mean.
func (a *Acc) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.n))
}

// CI95 reports the half-width of a 95% normal-approximation confidence
// interval on the mean.
func (a *Acc) CI95() float64 { return 1.96 * a.StdErr() }

// Min reports the smallest sample.
func (a *Acc) Min() float64 { return a.min }

// Max reports the largest sample.
func (a *Acc) Max() float64 { return a.max }

// String summarizes the accumulator.
func (a *Acc) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g (95%% CI) min=%.4g max=%.4g",
		a.n, a.Mean(), a.CI95(), a.min, a.max)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the samples
// using linear interpolation. It sorts a copy; the input is not modified.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// Mean returns the arithmetic mean of samples (NaN when empty).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var acc Acc
	for _, x := range samples {
		acc.Add(x)
	}
	return acc.Mean()
}

// LinFit is a least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type LinFit struct {
	Slope, Intercept, R2 float64
}

// FitLine computes the ordinary least-squares fit of y against x.
// The two slices must have equal length >= 2.
func FitLine(x, y []float64) (LinFit, error) {
	if len(x) != len(y) || len(x) < 2 {
		return LinFit{}, fmt.Errorf("stats: need two equal-length series of >= 2 points, got %d and %d", len(x), len(y))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return LinFit{}, fmt.Errorf("stats: x values are all equal")
	}
	slope := sxy / sxx
	fit := LinFit{Slope: slope, Intercept: my - float64(slope*mx)}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// FitLogN fits y against log2(n): the slope estimates the constant in a
// c*log2(n)+b growth law, the shape claim of Theorems 12 and 13.
func FitLogN(ns []int, y []float64) (LinFit, error) {
	x := make([]float64, len(ns))
	for i, n := range ns {
		if n <= 0 {
			return LinFit{}, fmt.Errorf("stats: n must be positive, got %d", n)
		}
		x[i] = math.Log2(float64(n))
	}
	return FitLine(x, y)
}

// Histogram counts samples into unit-width integer buckets; used for
// round-distribution tails.
type Histogram struct {
	Counts map[int]int64
	Total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{Counts: make(map[int]int64)}
}

// Add counts one integer-valued sample.
func (h *Histogram) Add(v int) {
	h.Counts[v]++
	h.Total++
}

// TailProb reports Pr[X > k] from the histogram.
func (h *Histogram) TailProb(k int) float64 {
	if h.Total == 0 {
		return 0
	}
	var above int64
	for v, c := range h.Counts {
		if v > k {
			above += c
		}
	}
	return float64(above) / float64(h.Total)
}

// Keys returns the bucket values in increasing order.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.Counts))
	for k := range h.Counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
