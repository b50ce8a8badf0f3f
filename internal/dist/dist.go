// Package dist provides the interarrival-time distributions of the noisy
// scheduling model (Section 3.1): the six distributions of the paper's
// Figure 1, the Theorem 13 two-point lower-bound distribution, the
// Theorem 1 pathological distribution, and the degenerate constant
// distribution used to build lockstep schedules in tests.
//
// All samples are drawn through an explicit *rand.Rand so that every
// consumer (engine, renewal race, message network) owns its own
// deterministic stream; the distributions themselves are stateless value
// types and safe for concurrent use.
package dist

import (
	"fmt"
	"math"
	"math/rand"

	"leanconsensus/internal/registry"
)

// Distribution is an interarrival-time distribution F_π. Sample must
// return a non-negative value; the noisy-scheduling model additionally
// assumes the distribution is not concentrated on a point (Constant
// exists for building degenerate schedules deliberately).
type Distribution interface {
	// Sample draws one value using the caller's random stream.
	Sample(rng *rand.Rand) float64
	// String renders the distribution for legends and tables.
	String() string
}

// Exponential is the exponential distribution with mean MeanVal — the
// Poisson-process noise of the paper's simulations.
type Exponential struct {
	// MeanVal is the mean interarrival time (must be positive).
	MeanVal float64
}

// Sample implements Distribution.
func (d Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() * d.MeanVal }

// Mean reports the distribution mean.
func (d Exponential) Mean() float64 { return d.MeanVal }

// String implements Distribution.
func (d Exponential) String() string { return fmt.Sprintf("exponential(mean=%g)", d.MeanVal) }

// Uniform is the continuous uniform distribution on (Lo, Hi).
type Uniform struct {
	// Lo and Hi bound the support; Hi must exceed Lo >= 0.
	Lo, Hi float64
}

// Sample implements Distribution.
func (d Uniform) Sample(rng *rand.Rand) float64 { return d.Lo + float64(rng.Float64()*(d.Hi-d.Lo)) }

// Mean reports the distribution mean.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// String implements Distribution.
func (d Uniform) String() string { return fmt.Sprintf("uniform(%g,%g)", d.Lo, d.Hi) }

// TwoPoint takes the values A and B with equal probability. TwoPoint{1, 2}
// is the Theorem 13 lower-bound construction; the mean-1 scaling
// TwoPoint{2/3, 4/3} appears in Figure 1.
type TwoPoint struct {
	// A and B are the two support points.
	A, B float64
}

// Sample implements Distribution.
func (d TwoPoint) Sample(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return d.A
	}
	return d.B
}

// Mean reports the distribution mean.
func (d TwoPoint) Mean() float64 { return (d.A + d.B) / 2 }

// String implements Distribution.
func (d TwoPoint) String() string { return fmt.Sprintf("two-point{%.4g,%.4g}", d.A, d.B) }

// Constant is the point mass at V. It violates the noisy-scheduling
// model's non-degeneracy assumption and exists for constructing lockstep
// schedules in tests.
type Constant struct {
	// V is the single support point.
	V float64
}

// Sample implements Distribution.
func (d Constant) Sample(rng *rand.Rand) float64 { return d.V }

// Mean reports the distribution mean.
func (d Constant) Mean() float64 { return d.V }

// String implements Distribution.
func (d Constant) String() string { return fmt.Sprintf("constant(%g)", d.V) }

// Geometric is the geometric distribution on {1, 2, 3, ...}: the number of
// Bernoulli(P) trials up to and including the first success. Its mean is
// 1/P. It is the discrete-noise entry of Figure 1.
type Geometric struct {
	// P is the per-trial success probability in (0, 1].
	P float64
}

// Sample implements Distribution.
func (d Geometric) Sample(rng *rand.Rand) float64 {
	if d.P >= 1 {
		return 1
	}
	// Inversion: k = ceil(ln U / ln(1-P)) has the geometric distribution.
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	k := math.Ceil(math.Log(u) / math.Log(1-d.P))
	if k < 1 {
		k = 1
	}
	return k
}

// Mean reports the distribution mean.
func (d Geometric) Mean() float64 { return 1 / d.P }

// String implements Distribution.
func (d Geometric) String() string { return fmt.Sprintf("geometric(p=%g)", d.P) }

// TruncNormal is a normal distribution with mean Mu and standard deviation
// Sigma, truncated to (Lo, Hi) by rejection. Figure 1 uses a normal
// truncated to positive values; truncation keeps samples non-negative as
// the model requires.
type TruncNormal struct {
	// Mu and Sigma are the untruncated mean and standard deviation.
	Mu, Sigma float64
	// Lo and Hi bound the support (Lo < Hi).
	Lo, Hi float64
}

// Sample implements Distribution.
func (d TruncNormal) Sample(rng *rand.Rand) float64 {
	for {
		x := float64(rng.NormFloat64()*d.Sigma) + d.Mu
		if x >= d.Lo && x <= d.Hi {
			return x
		}
	}
}

// Mean reports the truncated mean (computed from the standard normal pdf
// and cdf, not the untruncated Mu).
func (d TruncNormal) Mean() float64 {
	a := (d.Lo - d.Mu) / d.Sigma
	b := (d.Hi - d.Mu) / d.Sigma
	phi := func(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
	cdf := func(x float64) float64 { return float64(0.5 * (1 + math.Erf(x/math.Sqrt2))) }
	z := cdf(b) - cdf(a)
	return d.Mu + d.Sigma*(phi(a)-phi(b))/z
}

// String implements Distribution.
func (d TruncNormal) String() string {
	return fmt.Sprintf("normal(%g,%g)|(%g,%g)", d.Mu, d.Sigma, d.Lo, d.Hi)
}

// Shifted adds a deterministic offset to a base distribution: the delayed
// Poisson process of Figure 1 is Shifted{Offset, Exponential{mean}}.
type Shifted struct {
	// Offset is the deterministic delay added to every sample.
	Offset float64
	// Base is the underlying distribution.
	Base Distribution
}

// Sample implements Distribution.
func (d Shifted) Sample(rng *rand.Rand) float64 { return d.Offset + d.Base.Sample(rng) }

// Mean reports the distribution mean when the base exposes one (NaN
// otherwise).
func (d Shifted) Mean() float64 {
	if m, ok := d.Base.(interface{ Mean() float64 }); ok {
		return d.Offset + m.Mean()
	}
	return math.NaN()
}

// String implements Distribution.
func (d Shifted) String() string { return fmt.Sprintf("%g+%s", d.Offset, d.Base) }

// Pathological is the Theorem 1 distribution X = 2^(k²) with probability
// 2^(-k) for k = 1, 2, ...: every moment above the ~zeroth diverges, so
// noisy scheduling with this noise gives no fairness guarantee at all.
type Pathological struct{}

// Sample implements Distribution.
func (d Pathological) Sample(rng *rand.Rand) float64 {
	// k is geometric(1/2) on {1, 2, ...}; 2^(k^2) overflows float64 past
	// k = 31, at which point the value is effectively infinite anyway, so
	// the exponent is capped there.
	k := 1
	for rng.Intn(2) == 1 && k < 31 {
		k++
	}
	return math.Pow(2, float64(k*k))
}

// Mean reports the divergent expectation.
func (d Pathological) Mean() float64 { return math.Inf(1) }

// String implements Distribution.
func (d Pathological) String() string { return "pathological 2^(k^2) w.p. 2^(-k)" }

// Figure1 returns the six interarrival distributions of the paper's
// Figure 1: exponential, uniform, truncated normal, geometric, the
// mean-1 two-point distribution, and the delayed exponential. The
// continuous entries are scaled to mean 1; the geometric (mean 1/P = 2)
// keeps its natural integer support. Round counts are invariant under
// time scaling, so the differing scale affects only simulated durations.
func Figure1() []Distribution {
	return []Distribution{
		Exponential{MeanVal: 1},
		Uniform{Lo: 0, Hi: 2},
		TruncNormal{Mu: 1, Sigma: 1, Lo: 0, Hi: 2},
		Geometric{P: 0.5},
		TwoPoint{A: 2.0 / 3.0, B: 4.0 / 3.0},
		Shifted{Offset: 0.5, Base: Exponential{MeanVal: 0.5}},
	}
}

// names is the shared name→constructor registry of the
// default-parameterized distributions understood by ByName. It uses the
// same registry mechanism as the execution models in internal/engine.
var names = registry.New[Distribution]("dist", "distribution")

func init() {
	names.Register("exponential", func() Distribution { return Exponential{MeanVal: 1} })
	names.Register("uniform", func() Distribution { return Uniform{Lo: 0, Hi: 2} })
	names.Register("normal", func() Distribution { return TruncNormal{Mu: 1, Sigma: 1, Lo: 0, Hi: 2} })
	names.Register("geometric", func() Distribution { return Geometric{P: 0.5} })
	names.Register("two-point", func() Distribution { return TwoPoint{A: 2.0 / 3.0, B: 4.0 / 3.0} })
	names.Register("lower-bound", func() Distribution { return TwoPoint{A: 1, B: 2} })
	names.Register("delayed", func() Distribution { return Shifted{Offset: 0.5, Base: Exponential{MeanVal: 0.5}} })
	names.Register("constant", func() Distribution { return Constant{V: 1} })
	names.Register("pathological", func() Distribution { return Pathological{} })
	names.Alias("twopoint", "two-point")
}

// Names returns the distribution names ByName understands, sorted.
func Names() []string { return names.Names() }

// ByName returns the default-parameterized distribution registered under
// name (see Names). Lookup is case-insensitive and accepts "twopoint" for
// "two-point".
func ByName(name string) (Distribution, error) { return names.Lookup(name) }

// ResolveName returns the canonical registered name for name (following
// aliases, e.g. "TwoPoint" → "two-point") and whether it is registered.
func ResolveName(name string) (string, bool) { return names.Resolved(name) }
