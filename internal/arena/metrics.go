package arena

import (
	"time"

	"leanconsensus/internal/metrics"
)

// Metrics is a telemetry bundle: the arena's own (Config.Metrics) or a
// cell's (CellRequest.Metrics). All fields must be non-nil; build one
// with NewMetrics so every bundle emits the same metric families.
// Workers record through per-worker stripes, so the instrumented hot
// path costs a handful of uncontended atomic adds and zero allocations
// per served instance (BenchmarkArenaThroughput's telemetry dimension
// proves it).
type Metrics struct {
	// Decided counts decisions by decided value.
	Decided [2]*metrics.Counter
	// Errors counts failed instances.
	Errors *metrics.Counter
	// Rounds sums first-decision rounds (divide by decisions for the mean
	// round, the paper's Figure 1 quantity).
	Rounds *metrics.Counter
	// Ops sums per-instance operation counts.
	Ops *metrics.Counter
	// Latency is the wall-clock submit→decision latency in seconds, one
	// observation per instance (a cell repetition counts from the cell's
	// enqueue).
	Latency *metrics.Histogram
	// Queued tracks requests admitted but not yet served.
	Queued *metrics.Gauge
}

// Metric families emitted by NewMetrics.
const (
	MetricDecisions = "leanconsensus_decisions_total"
	MetricErrors    = "leanconsensus_instance_errors_total"
	MetricRounds    = "leanconsensus_rounds_total"
	MetricOps       = "leanconsensus_ops_total"
	MetricLatency   = "leanconsensus_instance_latency_seconds"
	MetricQueued    = "leanconsensus_queued_requests"
)

// NewMetrics registers (or re-resolves) the arena's metric families in
// reg under the given label key/value pairs — typically model and dist,
// so per-model/per-distribution series stay separable — and returns the
// bundle. Two arenas built with the same registry and labels share the
// same series, which is exactly what a serving layer running many
// same-shaped jobs wants.
func NewMetrics(reg *metrics.Registry, kv ...string) *Metrics {
	l := func(extra ...string) string {
		return metrics.Labels(append(append([]string{}, kv...), extra...)...)
	}
	return &Metrics{
		Decided: [2]*metrics.Counter{
			reg.Counter(MetricDecisions+l("value", "0"), "consensus decisions by decided value"),
			reg.Counter(MetricDecisions+l("value", "1"), "consensus decisions by decided value"),
		},
		Errors:  reg.Counter(MetricErrors+l(), "consensus instances that failed"),
		Rounds:  reg.Counter(MetricRounds+l(), "sum of first-decision rounds across decided instances"),
		Ops:     reg.Counter(MetricOps+l(), "sum of per-instance operation counts"),
		Latency: reg.Histogram(MetricLatency+l(), "wall-clock submit-to-decision latency in seconds", nil),
		Queued:  reg.Gauge(MetricQueued+l(), "requests admitted but not yet served"),
	}
}

// workerMetrics is one worker's stripe view of a Metrics bundle: every
// instrument resolved to the worker's private padded slot once, at
// worker start, so the per-request record path is branch-free index
// arithmetic plus atomic adds.
type workerMetrics struct {
	decided [2]metrics.CounterStripe
	errors  metrics.CounterStripe
	rounds  metrics.CounterStripe
	ops     metrics.CounterStripe
	latency metrics.HistogramStripe
	queued  metrics.GaugeStripe
}

// stripes resolves the bundle onto stripe idx; nil for a nil bundle.
func (m *Metrics) stripes(idx int) *workerMetrics {
	if m == nil {
		return nil
	}
	return &workerMetrics{
		decided: [2]metrics.CounterStripe{m.Decided[0].Stripe(idx), m.Decided[1].Stripe(idx)},
		errors:  m.Errors.Stripe(idx),
		rounds:  m.Rounds.Stripe(idx),
		ops:     m.Ops.Stripe(idx),
		latency: m.Latency.Stripe(idx),
		queued:  m.Queued.Stripe(idx),
	}
}

// record folds one served result into the worker's stripes.
func (w *workerMetrics) record(r Result) {
	w.queued.Add(-1)
	if r.Err != nil {
		w.errors.Inc()
	} else {
		w.decided[r.Value].Inc()
		w.rounds.Add(int64(r.FirstRound))
		w.ops.Add(r.Ops)
	}
	w.latency.Observe(float64(r.Latency) / float64(time.Second))
}

// recordCell folds one served cell's counters into the worker's stripes
// in bulk and returns the cell's single queue slot (enqueue charged one
// per request, whatever its Reps). Latency is not observed here: the cell
// loop observes it once per repetition, so the histogram counts
// instances on every path.
func (w *workerMetrics) recordCell(local ShardStats) {
	w.queued.Add(-1)
	w.decided[0].Add(local.Decided[0])
	w.decided[1].Add(local.Decided[1])
	w.errors.Add(local.Errors)
	w.rounds.Add(local.RoundSum)
	w.ops.Add(local.Ops)
}
