// Package engine is the single execution-model layer of the repository.
//
// The paper's termination argument is environment-supplied: noisy
// scheduling (Section 6), hybrid quantum/priority scheduling (Section 7),
// and the message-passing extension (Section 10) are three interchangeable
// environments wrapped around one fixed algorithm. This package makes that
// structure literal. An execution model is a Model: a named, pure function
// from an instance Spec to a Result. Models register themselves in a
// shared registry (see Register), so a new environment plugs in once and
// immediately appears everywhere a model name is accepted — the arena
// (internal/arena), the experiment harness (internal/harness), every cmd/
// tool's flags and -list output, and the public leanconsensus API.
//
// The package also owns the Session: per-worker pooled state (shared
// memory, machines, RNG streams, the discrete-event engine itself and the
// hybrid scheduler) that
// lets a worker run thousands of instances with near-zero steady-state
// allocations. Sessions never affect outcomes — a Model run with a pooled
// Session is bit-identical to one run with none — they only amortize
// allocation; BenchmarkEngineSession quantifies the win.
package engine

import (
	"errors"
	"fmt"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/registry"
)

// Failure classes a model may wrap into its Run error. Aggregation layers
// (the campaign's violation counters) classify instance failures with
// errors.Is against these instead of parsing messages.
var (
	// ErrDisagreement marks a safety violation: two processes decided
	// different values.
	ErrDisagreement = errors.New("agreement violated")
	// ErrUndecided marks a liveness failure: the run ended with at least
	// one process undecided.
	ErrUndecided = errors.New("no decision")
)

// Spec fully determines one consensus instance. Everything an instance's
// outcome depends on is in the spec — models must not consult any other
// source of randomness or shared state — which is what makes whole-arena
// runs replayable from a single seed.
type Spec struct {
	// Key is the client's routing key (carried for diagnostics).
	Key string
	// N is the number of processes.
	N int
	// Inputs holds the N input bits (Inputs[0] is the client's proposal).
	// The slice is only borrowed: models must not retain it after Run
	// returns, so pooled callers may reuse it.
	Inputs []int
	// Noise is the interarrival/delay noise distribution.
	Noise dist.Distribution
	// Adversary is the resolved adversarial schedule supplying the
	// deterministic delay part of the environment (nil selects the zero
	// schedule — pure noise). Models that cannot run it reject the spec
	// with a typed *AdversaryError instead of silently running a
	// different schedule.
	Adversary *Adversary
	// Seed is the instance's private random seed. The arena derives a
	// proposal's from the arena seed and the key's hash, and a cell
	// repetition's from the cell's own Seed(rep).
	Seed uint64
}

// Result reports one completed consensus instance.
type Result struct {
	// Value is the agreed bit.
	Value int
	// FirstRound and LastRound are the first and last decision rounds
	// (zero for models without a round structure).
	FirstRound, LastRound int
	// Ops is the total number of shared-memory operations (or emulated
	// register operations for message passing).
	Ops int64
	// SimTime is the simulated duration (zero for the hybrid model, whose
	// scheduling model has no clock).
	SimTime float64
}

// validate checks the spec fields every model depends on, so all models
// reject a malformed spec the same way instead of each improvising (or,
// worse, silently running at the wrong size).
func (s Spec) validate() error {
	if s.N <= 0 {
		return fmt.Errorf("engine: instance %q: N must be positive, got %d", s.Key, s.N)
	}
	if len(s.Inputs) != s.N {
		return fmt.Errorf("engine: instance %q: %d inputs for %d processes", s.Key, len(s.Inputs), s.N)
	}
	return nil
}

// Model runs one consensus instance under some execution model. A Model
// must be a pure function of the spec: the session only recycles buffers.
// A single Model value may be shared by concurrent workers as long as each
// worker passes its own Session (or nil).
type Model interface {
	// Name identifies the model in stats, CLIs, and reports.
	Name() string
	// Run executes the instance to completion. A nil session is allowed
	// and simply forgoes pooling.
	Run(spec Spec, s *Session) (Result, error)
}

// DefaultModel is the model an empty name resolves to: the paper's noisy
// scheduling environment.
const DefaultModel = "sched"

// NoiseFree is an optional interface for models whose outcomes do not
// depend on Spec.Noise (e.g. the hybrid quantum/priority model, which has
// no clock). CLIs use it to reject noise flags that would otherwise be
// silently ignored.
type NoiseFree interface {
	IgnoresNoise() bool
}

// IgnoresNoise reports whether the model declares, via NoiseFree, that
// Spec.Noise cannot affect its outcome.
func IgnoresNoise(m Model) bool {
	nf, ok := m.(NoiseFree)
	return ok && nf.IgnoresNoise()
}

// modelEntry is what the registry stores: the constructor together with
// its listing description, so the two can never disagree.
type modelEntry struct {
	brief string
	mk    func() Model
}

// models is the self-registering execution-model registry — the one
// registry behind arena backends, harness dispatch, cmd/ flags, and the
// public API.
var models = registry.New[modelEntry]("engine", "model")

// Register adds a model constructor under name, with a one-line
// description for listings. Models call it from init; registering a
// duplicate name panics, as does a constructor whose Name() disagrees
// with the registered name — consumers dispatch on Name() (leansim's
// default-model branch, arena report headers), so the two must match.
func Register(name, brief string, mk func() Model) {
	if got := mk().Name(); registry.Canonical(got) != registry.Canonical(name) {
		panic(fmt.Sprintf("engine: model registered as %q reports Name() %q", name, got))
	}
	models.Register(name, func() modelEntry { return modelEntry{brief: brief, mk: mk} })
}

// ByName constructs the model registered under name; the empty string
// selects DefaultModel.
func ByName(name string) (Model, error) {
	if name == "" {
		name = DefaultModel
	}
	e, err := models.Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.mk(), nil
}

// Names returns the registered model names, sorted.
func Names() []string { return models.Names() }

// Info describes one registered model for listings.
type Info struct {
	Name  string
	Brief string
}

// List returns the registered models with their descriptions, sorted by
// name.
func List() []Info {
	names := models.Names()
	out := make([]Info, 0, len(names))
	for _, n := range names {
		e, err := models.Lookup(n)
		if err != nil {
			continue
		}
		out = append(out, Info{Name: n, Brief: e.brief})
	}
	return out
}
