// Package sched implements the noisy scheduling model of Section 3.1 as a
// discrete-event simulation.
//
// The adversary chooses a starting time Δ_i0 for each process, a delay
// Δ_ij ∈ [0, M] before each operation, and the common noise distribution F
// for each operation type; process i's j-th operation then occurs at
//
//	S_ij = Δ_i0 + Σ_{k=1..j} (Δ_ik + X_ik)
//
// with X_ik ~ F independent. Halting failures strike each operation
// independently with probability h(n) (Section 3.1.2). The engine executes
// operations in global time order against a shared memory, which realizes
// the interleaving semantics of the model; start times are dithered as in
// the paper's simulations, so that under continuous noise ties occur with
// probability zero and under discrete noise the dither orders every tie.
package sched

import (
	"math"

	"leanconsensus/internal/xrand"
)

// View is the read-only picture of the execution that adaptive adversaries
// may consult. The noisy scheduling model's adversary is oblivious (it
// picks all Δ in advance), so anything an oblivious adversary can do, an
// adversary ignoring the View can do; the View exists so tests can exercise
// *stronger* adversaries than the model grants.
type View interface {
	// N reports the number of processes.
	N() int
	// Round reports the racing-counters round process i is at, or 0 if the
	// machine does not expose rounds.
	Round(i int) int
	// Decided reports whether process i has decided.
	Decided(i int) bool
	// Halted reports whether process i has halted (failed).
	Halted(i int) bool
	// Leader reports a process with the maximum round and that round.
	Leader() (proc, round int)
}

// Adversary supplies the deterministic part of the schedule: start offsets
// and the bounded per-operation delays.
type Adversary interface {
	// StartDelay returns Δ_i0 >= 0 for process i.
	StartDelay(i int) float64
	// StepDelay returns Δ_ij for process i's j-th operation (j >= 1). The
	// value must lie in [0, Bound()].
	StepDelay(i int, j int64, v View) float64
	// Bound reports M, the upper bound on step delays. It must not change
	// during a run: the engine reads it once, when the run is armed.
	Bound() float64
}

// Zero is the adversary that inserts no delays at all: the schedule is
// pure noise. This is the configuration of the paper's Figure 1
// simulations. The engine treats it as a nil Config.Adversary and calls
// none of its methods.
type Zero struct{}

// StartDelay implements Adversary.
func (Zero) StartDelay(int) float64 { return 0 }

// StepDelay implements Adversary.
func (Zero) StepDelay(int, int64, View) float64 { return 0 }

// Bound implements Adversary.
func (Zero) Bound() float64 { return 0 }

// Constant delays every operation of every process by D.
type Constant struct {
	D float64
}

// StartDelay implements Adversary.
func (a Constant) StartDelay(int) float64 { return 0 }

// StepDelay implements Adversary.
func (a Constant) StepDelay(int, int64, View) float64 { return a.D }

// Bound implements Adversary.
func (a Constant) Bound() float64 { return a.D }

// Stagger starts process i at time i*Gap, with no further delays. It
// models processes arriving one at a time, the regime where lean-consensus
// is adaptive ("fast" in the sense of [2,26]).
type Stagger struct {
	Gap float64
}

// StartDelay implements Adversary.
func (a Stagger) StartDelay(i int) float64 { return float64(i) * a.Gap }

// StepDelay implements Adversary.
func (a Stagger) StepDelay(int, int64, View) float64 { return 0 }

// Bound implements Adversary.
func (a Stagger) Bound() float64 { return 0 }

// AntiLeader is an adaptive adversary that always delays the current
// leader by the full bound M while letting everyone else run free. It is
// strictly stronger than anything the oblivious noisy-scheduling adversary
// can do, and it attacks exactly the mechanism the termination proof
// relies on (a leader escaping by c rounds). lean-consensus still
// terminates against it because the noise accumulates faster than M can
// compensate — the repository's tests use it as a worst-case probe.
type AntiLeader struct {
	M float64
}

// StartDelay implements Adversary.
func (a AntiLeader) StartDelay(int) float64 { return 0 }

// StepDelay implements Adversary.
func (a AntiLeader) StepDelay(i int, _ int64, v View) float64 {
	if v == nil {
		return 0
	}
	if leader, _ := v.Leader(); leader == i {
		return a.M
	}
	return 0
}

// Bound implements Adversary.
func (a AntiLeader) Bound() float64 { return a.M }

// HalfSplit delays every process with an even index by M on every step,
// creating two speed classes.
type HalfSplit struct {
	M float64
}

// StartDelay implements Adversary.
func (a HalfSplit) StartDelay(int) float64 { return 0 }

// StepDelay implements Adversary.
func (a HalfSplit) StepDelay(i int, _ int64, _ View) float64 {
	if i%2 == 0 {
		return a.M
	}
	return 0
}

// Bound implements Adversary.
func (a HalfSplit) Bound() float64 { return a.M }

// RandomDelay is the seeded-random oblivious adversary: every start
// offset and step delay is an independent-looking but fully deterministic
// hash of (Seed, i, j), scaled to [0, M). It realizes the model's
// oblivious adversary literally — the whole Δ table is fixed by Seed
// before the execution starts, independent of anything the processes do —
// and being a pure stateless function of its fields it is safe to share
// across concurrent workers, like a distribution.
type RandomDelay struct {
	// M is the delay bound; delays are uniform-looking over [0, M).
	M float64
	// Seed selects the Δ table.
	Seed uint64
}

// delta is the hashed Δ_ij in [0, M).
func (a RandomDelay) delta(i, j uint64) float64 {
	h := xrand.Mix(a.Seed, 0x64656c7461, i, j) // "delta"
	return a.M * float64(h>>11) / float64(1<<53)
}

// StartDelay implements Adversary.
func (a RandomDelay) StartDelay(i int) float64 { return a.delta(uint64(i), 0) }

// StepDelay implements Adversary.
func (a RandomDelay) StepDelay(i int, j int64, _ View) float64 {
	return a.delta(uint64(i), uint64(j))
}

// Bound implements Adversary.
func (a RandomDelay) Bound() float64 { return a.M }

// Validate reports whether a delay produced by an adversary is legal.
func validDelay(d, bound float64) bool {
	return d >= 0 && d <= bound+1e-12 && !math.IsNaN(d)
}

// Interface compliance checks.
var (
	_ Adversary = Zero{}
	_ Adversary = Constant{}
	_ Adversary = Stagger{}
	_ Adversary = AntiLeader{}
	_ Adversary = HalfSplit{}
	_ Adversary = RandomDelay{}
)
