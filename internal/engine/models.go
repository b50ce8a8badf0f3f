package engine

import (
	"errors"
	"fmt"

	"leanconsensus/internal/hybrid"
	"leanconsensus/internal/msgnet"
	"leanconsensus/internal/register"
	"leanconsensus/internal/sched"
	"leanconsensus/internal/trace"
)

// The three execution models of the paper register themselves here; new
// environments follow the same pattern: implement Model, call Register
// from init, and every consumer (arena, harness, cmd/ tools, public API)
// picks the name up automatically.
func init() {
	Register("sched", "noisy scheduling (Section 3.1), discrete-event simulation — the default",
		func() Model { return &Sched{} })
	Register("hybrid", "quantum/priority uniprocessor (Section 7), ≤12 ops per process",
		func() Model { return &Hybrid{} })
	Register("msgnet", "message passing with ABD-emulated registers (Section 10)",
		func() Model { return &MsgNet{} })
}

// Sched executes instances under the paper's noisy scheduling model
// (Section 3.1) via the discrete-event engine.
type Sched struct {
	// FailureProb is the per-operation halting probability h(n).
	FailureProb float64
}

// Name implements Model.
func (*Sched) Name() string { return "sched" }

// AcceptsAdversary implements Adversarial: the noisy scheduling model
// runs any schedule with a delay-adversary face.
func (*Sched) AcceptsAdversary(a *Adversary) bool { return a.Sched() != nil }

// Run implements Model.
func (m *Sched) Run(spec Spec, s *Session) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	if err := CheckAdversary(m, spec.Adversary); err != nil {
		return Result{}, err
	}
	if s == nil {
		s = NewSession()
	}
	layout := register.Layout{}
	cfg := sched.Config{
		N:           spec.N,
		Machines:    s.LeanMachines(layout, spec.Inputs),
		Mem:         s.Mem(layout, register.DefaultLeanRounds),
		ReadNoise:   spec.Noise,
		Adversary:   spec.Adversary.Sched(),
		FailureProb: m.FailureProb,
		Seed:        spec.Seed,
		Trace:       s.rec,
	}
	eng, err := s.schedEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := eng.RunInto(&s.schedRes); err != nil {
		return Result{}, err
	}
	res := &s.schedRes
	if res.CapHit {
		return Result{}, fmt.Errorf("engine: instance %q hit the operation cap", spec.Key)
	}
	value, ok := res.Agreement()
	if !ok {
		return Result{}, fmt.Errorf("engine: instance %q: %w: %v", spec.Key, ErrDisagreement, res.Decisions)
	}
	if value < 0 {
		return Result{}, fmt.Errorf("engine: instance %q: %w: %v", spec.Key, ErrUndecided, res.Decisions)
	}
	return Result{
		Value:      value,
		FirstRound: res.FirstDecisionRound,
		LastRound:  res.LastDecisionRound,
		Ops:        res.TotalOps,
		SimTime:    res.Time,
	}, nil
}

// Hybrid executes instances under the Section 7 quantum/priority
// uniprocessor model with the randomized legal scheduler. Theorem 14
// bounds every process to at most 12 operations, making this the cheapest
// model per decision.
type Hybrid struct {
	// Quantum is the scheduling quantum in operations (default 8, the
	// smallest value Theorem 14 covers).
	Quantum int
}

// Name implements Model.
func (*Hybrid) Name() string { return "hybrid" }

// IgnoresNoise implements NoiseFree: the quantum/priority model has no
// clock, so Spec.Noise never reaches it.
func (*Hybrid) IgnoresNoise() bool { return true }

// AcceptsAdversary implements Adversarial: the hybrid model runs any
// schedule with a quantum/priority scheduling face.
func (*Hybrid) AcceptsAdversary(a *Adversary) bool { return a.HasHybrid() }

// Run implements Model.
func (m *Hybrid) Run(spec Spec, s *Session) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	if err := CheckAdversary(m, spec.Adversary); err != nil {
		return Result{}, err
	}
	if s == nil {
		s = NewSession()
	}
	quantum := m.Quantum
	if quantum == 0 {
		quantum = 8
	}
	// A named schedule supplies its own per-instance scheduling
	// adversary; the zero schedule keeps the model's default randomized
	// legal scheduler on the session's pooled stream.
	hadv := spec.Adversary.Hybrid(spec.Seed)
	if hadv == nil {
		hadv = s.hybridAdversary(spec.Seed)
	}
	layout := register.Layout{}
	res, err := s.hybrid.Run(hybrid.Config{
		N:         spec.N,
		Machines:  s.LeanMachines(layout, spec.Inputs),
		Mem:       s.Mem(layout, register.DefaultLeanRounds),
		Quantum:   quantum,
		Adversary: hadv,
		Trace:     s.rec,
	})
	if err != nil {
		return Result{}, err
	}
	value := -1
	for _, d := range res.Decisions {
		if d < 0 {
			return Result{}, fmt.Errorf("engine: hybrid instance %q: %w", spec.Key, ErrUndecided)
		}
		if value < 0 {
			value = d
		} else if value != d {
			return Result{}, fmt.Errorf("engine: hybrid instance %q: %w: %v", spec.Key, ErrDisagreement, res.Decisions)
		}
	}
	return Result{Value: value, Ops: res.Steps}, nil
}

// MsgNet executes instances over the emulated message-passing network
// (Section 10 extension): registers are simulated with the ABD protocol on
// top of point-to-point messages with noisy delays.
type MsgNet struct{}

// Name implements Model.
func (*MsgNet) Name() string { return "msgnet" }

// Run implements Model. With a session, the run reuses the session's
// pooled msgnet.Sim — nodes, replica maps, machines, network queue and
// slab, and RNG streams all survive across instances, which is what
// cuts the model's per-run allocations from about a hundred to two
// (BenchmarkEngineSession's msgnet pair). Messages are plain values in
// the slab, so neither path allocates per message. MsgNet does
// not implement Adversarial — the emulated network has no Δ-schedule
// hook — so a spec naming an adversary is rejected with the typed error
// here.
func (m *MsgNet) Run(spec Spec, s *Session) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	if err := CheckAdversary(m, spec.Adversary); err != nil {
		return Result{}, err
	}
	var rec *trace.Recorder
	if s != nil {
		rec = s.rec
	}
	ccfg := msgnet.ConsensusConfig{
		Inputs: spec.Inputs,
		Delay:  spec.Noise,
		Seed:   spec.Seed,
		Trace:  rec,
	}
	var res *msgnet.ConsensusResult
	var err error
	if s != nil {
		res, err = s.MsgSim().Run(ccfg)
	} else {
		res, err = msgnet.Consensus(ccfg)
	}
	if err != nil {
		// Re-wrap the network's failure classes into the engine's
		// sentinels so aggregation layers classify msgnet failures like
		// any other model's.
		switch {
		case errors.Is(err, msgnet.ErrDisagreement):
			err = fmt.Errorf("engine: msgnet instance %q: %w: %v", spec.Key, ErrDisagreement, err)
		case errors.Is(err, msgnet.ErrUndecided):
			err = fmt.Errorf("engine: msgnet instance %q: %w: %v", spec.Key, ErrUndecided, err)
		}
		return Result{}, err
	}
	return Result{
		Value:      res.Value,
		FirstRound: res.Rounds,
		LastRound:  res.Rounds,
		Ops:        res.RegisterOps,
		SimTime:    res.Time,
	}, nil
}
