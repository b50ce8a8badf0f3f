// Package leanconsensus is a reproduction of James Aspnes, "Fast
// Deterministic Consensus in a Noisy Environment" (PODC 2000): the
// deterministic lean-consensus algorithm, the noisy scheduling model in
// which it terminates in Θ(log n) expected rounds, the hybrid
// quantum/priority uniprocessor model in which it finishes in at most 12
// operations, and the bounded-space combined protocol.
//
// The package offers three ways to run the algorithm:
//
//   - Simulate executes it under the noisy scheduling model of the paper
//     (Section 3.1) in a deterministic discrete-event simulation;
//   - SimulateHybrid executes it under the quantum/priority uniprocessor
//     model (Section 7);
//   - Live executes it on real goroutines against sync/atomic registers,
//     with the Go runtime as the noise source.
//
// The underlying machinery lives in internal/: the execution-model layer
// and its registries (internal/engine), schedulers, distributions, the
// model checker, and the experiment harness. The cmd/leanbench tool
// regenerates every figure and table of the paper's evaluation; Backends
// lists the execution models available to NewArena.
package leanconsensus

import (
	"errors"
	"fmt"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/harness"
	"leanconsensus/internal/sched"
)

// Distribution is an interarrival-time distribution for the noisy
// scheduling model. Implementations must return non-negative samples; the
// model additionally assumes the distribution is not concentrated on a
// point (Constant exists for building degenerate schedules in tests).
type Distribution = dist.Distribution

// Adversary chooses the deterministic part of a noisy schedule: starting
// offsets and bounded per-operation delays (Section 3.1).
type Adversary = sched.Adversary

// Distribution constructors mirroring the paper's Figure 1 legend.

// Exponential returns an exponential distribution with the given mean.
func Exponential(mean float64) Distribution { return dist.Exponential{MeanVal: mean} }

// Uniform returns the uniform distribution on (lo, hi).
func Uniform(lo, hi float64) Distribution { return dist.Uniform{Lo: lo, Hi: hi} }

// Normal returns a normal distribution with the given mean and standard
// deviation, truncated to (lo, hi) by rejection.
func Normal(mean, sd, lo, hi float64) Distribution {
	return dist.TruncNormal{Mu: mean, Sigma: sd, Lo: lo, Hi: hi}
}

// Geometric returns the geometric distribution on {1, 2, ...} with success
// probability p.
func Geometric(p float64) Distribution { return dist.Geometric{P: p} }

// TwoPoint returns the distribution taking values a or b with equal
// probability.
func TwoPoint(a, b float64) Distribution { return dist.TwoPoint{A: a, B: b} }

// DelayedExponential returns offset + Exponential(mean), a delayed Poisson
// process.
func DelayedExponential(offset, mean float64) Distribution {
	return dist.Shifted{Offset: offset, Base: dist.Exponential{MeanVal: mean}}
}

// Constant returns the point mass at v. It violates the noisy-scheduling
// model's assumptions and exists for constructing degenerate (lockstep)
// schedules deliberately.
func Constant(v float64) Distribution { return dist.Constant{V: v} }

// Figure1Distributions returns the six distributions of the paper's
// Figure 1.
func Figure1Distributions() []Distribution { return dist.Figure1() }

// options collects the knobs shared by Simulate.
type options struct {
	inputs      []int
	dist        Distribution
	writeDist   Distribution
	adversary   Adversary
	failureProb float64
	seed        uint64
	bounded     bool
	rmax        int
	record      bool
	maxOps      int64
	contention  *sched.Contention
}

// Option configures Simulate.
type Option func(*options) error

// WithInputs sets each process's input bit explicitly. The default is the
// paper's simulation setup: half the processes start with each value.
func WithInputs(inputs []int) Option {
	return func(o *options) error {
		for _, b := range inputs {
			if b != 0 && b != 1 {
				return fmt.Errorf("leanconsensus: input bits must be 0 or 1, got %d", b)
			}
		}
		o.inputs = append([]int(nil), inputs...)
		return nil
	}
}

// WithDistribution sets the interarrival noise distribution (default
// Exponential(1)). Noise that makes a completion time NaN fails the run
// with an error.
func WithDistribution(d Distribution) Option {
	return func(o *options) error {
		if d == nil {
			return errors.New("leanconsensus: nil distribution")
		}
		o.dist = d
		return nil
	}
}

// WithWriteDistribution sets a separate noise distribution for write
// operations (the model allows one distribution per operation type).
func WithWriteDistribution(d Distribution) Option {
	return func(o *options) error {
		o.writeDist = d
		return nil
	}
}

// WithAdversary sets the deterministic-delay adversary (default: none —
// the pure-noise schedule of the paper's simulations).
func WithAdversary(a Adversary) Option {
	return func(o *options) error {
		o.adversary = a
		return nil
	}
}

// WithFailures sets the per-operation halting failure probability h(n).
func WithFailures(h float64) Option {
	return func(o *options) error {
		if h < 0 || h >= 1 {
			return fmt.Errorf("leanconsensus: failure probability %v outside [0,1)", h)
		}
		o.failureProb = h
		return nil
	}
}

// WithSeed fixes the randomness, making the simulation fully reproducible.
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithBoundedSpace switches to the Section 8 combined protocol, cutting
// lean-consensus off after rmax rounds and falling back to the backup
// protocol.
func WithBoundedSpace(rmax int) Option {
	return func(o *options) error {
		if rmax < 1 {
			return fmt.Errorf("leanconsensus: rmax must be positive, got %d", rmax)
		}
		o.bounded = true
		o.rmax = rmax
		return nil
	}
}

// WithRecording captures the full operation history, enabling invariant
// checking on the run (Result.CheckInvariants).
func WithRecording() Option {
	return func(o *options) error {
		o.record = true
		return nil
	}
}

// WithMaxOps overrides the per-process operation safety valve.
func WithMaxOps(maxOps int64) Option {
	return func(o *options) error {
		if maxOps < 8 {
			return fmt.Errorf("leanconsensus: max ops %d cannot complete a round", maxOps)
		}
		o.maxOps = maxOps
		return nil
	}
}

// WithContention enables the memory-contention model (Section 10):
// operations on busy registers incur penalty × decaying-load extra delay,
// with the given load half-life.
func WithContention(halfLife, penalty float64) Option {
	return func(o *options) error {
		if halfLife <= 0 || penalty < 0 {
			return fmt.Errorf("leanconsensus: contention needs positive half-life and non-negative penalty")
		}
		o.contention = &sched.Contention{HalfLife: halfLife, Penalty: penalty}
		return nil
	}
}

// Result reports a simulated consensus execution.
type Result struct {
	// Value is the agreed bit (-1 if every process halted).
	Value int
	// Decisions holds each process's decision (-1 for halted processes).
	Decisions []int
	// FirstRound is the round at which the temporally first process
	// decided — the paper's Figure 1 metric.
	FirstRound int
	// LastRound is the largest decision round (Lemma 4: at most
	// FirstRound+1 in the pure protocol).
	LastRound int
	// OpsPerProcess holds the operations each process executed.
	OpsPerProcess []int64
	// Time is the simulated duration.
	Time float64
	// Halted marks processes killed by failures.
	Halted []bool
	// BackupUsed counts processes that entered the backup protocol
	// (bounded-space mode only).
	BackupUsed int

	run *harness.SimRun
}

// CheckInvariants verifies agreement, validity, Lemma 2 and Lemma 4
// against the recorded history. Recording must have been enabled with
// WithRecording; without it only the decision-level checks run.
func (r *Result) CheckInvariants() error {
	return r.run.CheckRun()
}

// Simulate runs one consensus among n processes under the noisy scheduling
// model and returns the outcome. The default configuration matches the
// paper's Figure 1 simulations: exponential(1) interarrival noise, no
// adversary delays, no failures, half the processes starting with each
// input, start times dithered by U(0, 1e-8).
func Simulate(n int, opts ...Option) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("leanconsensus: n must be positive, got %d", n)
	}
	o := options{dist: Exponential(1), seed: 1}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.inputs != nil && len(o.inputs) != n {
		return nil, fmt.Errorf("leanconsensus: %d inputs for %d processes", len(o.inputs), n)
	}
	variant := harness.VariantLean
	if o.bounded {
		variant = harness.VariantCombined
	}
	run, err := harness.RunSim(harness.SimConfig{
		N:             n,
		Inputs:        o.inputs,
		ReadNoise:     o.dist,
		WriteNoise:    o.writeDist,
		Adversary:     o.adversary,
		FailureProb:   o.failureProb,
		Seed:          o.seed,
		Variant:       variant,
		RMax:          o.rmax,
		Record:        o.record,
		MaxOpsPerProc: o.maxOps,
		Contention:    o.contention,
	})
	if err != nil {
		return nil, err
	}
	res := run.Res
	if res.CapHit {
		return nil, errors.New("leanconsensus: simulation hit the operation cap without termination " +
			"(degenerate schedule? see WithMaxOps)")
	}
	value, ok := res.Agreement()
	if !ok {
		// Cannot happen per Lemmas 2-4; if it ever does, fail loudly.
		return nil, fmt.Errorf("leanconsensus: agreement violated: %v", res.Decisions)
	}
	return &Result{
		Value:         value,
		Decisions:     res.Decisions,
		FirstRound:    res.FirstDecisionRound,
		LastRound:     res.LastDecisionRound,
		OpsPerProcess: res.OpCounts,
		Time:          res.Time,
		Halted:        res.Halted,
		BackupUsed:    res.BackupUsed,
		run:           run,
	}, nil
}
