package engine

import (
	"math/rand"

	"leanconsensus/internal/cacheline"
	"leanconsensus/internal/core"
	"leanconsensus/internal/hybrid"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/msgnet"
	"leanconsensus/internal/register"
	"leanconsensus/internal/sched"
	"leanconsensus/internal/trace"
	"leanconsensus/internal/xrand"
)

// Session is one worker's pooled execution state: the shared-memory bank,
// the lean machines, the RNG stream, the discrete-event engine and the
// hybrid scheduler that every run would otherwise reallocate. A Session
// is NOT safe for concurrent use — each worker owns exactly one — and it
// never leaks state between runs: memory is zeroed, machines are
// reinitialized, and RNG streams are re-derived from each run's seed, so
// results are bit-identical with and without pooling.
// A session and every buffer a sched run writes fill whole cache-line
// blocks (internal/cacheline), so sibling workers' sessions never share
// a line there.
type Session struct {
	mem      *register.SimMem
	leans    []core.Lean
	machines []machine.Machine
	inputs   []int

	src xrand.Source
	rng *rand.Rand

	hadv   hybrid.Random
	hybrid hybrid.Runner

	sched    *sched.Engine
	schedRes sched.Result

	msgSim *msgnet.Sim

	rec *trace.Recorder

	_ [120]byte // to 8 cache-line blocks; TestPooledBlocks checks
}

// NewSession returns an empty session; buffers materialize on first use
// and are retained across runs.
func NewSession() *Session { return &Session{} }

// Mem returns the session's shared memory, zeroed, grown to the layout's
// register count through leanRounds rounds, and with the layout's
// read-only prefix initialized.
func (s *Session) Mem(layout register.Layout, leanRounds int) *register.SimMem {
	if s.mem == nil {
		s.mem = layout.NewMem(leanRounds)
		return s.mem
	}
	if leanRounds <= 0 {
		leanRounds = register.DefaultLeanRounds
	}
	s.mem.Reset()
	s.mem.Grow(layout.Registers(leanRounds))
	layout.InitMem(s.mem)
	return s.mem
}

// LeanMachines returns one lean-consensus machine per input bit, backed by
// the session's pooled machine pool.
func (s *Session) LeanMachines(layout register.Layout, inputs []int) []machine.Machine {
	n := len(inputs)
	if cap(s.leans) < n {
		s.leans = cacheline.Make[core.Lean](n)
	}
	s.leans = s.leans[:n]
	if cap(s.machines) < n {
		s.machines = cacheline.Make[machine.Machine](n)
	}
	s.machines = s.machines[:n]
	for i, bit := range inputs {
		s.leans[i].Reset(layout, bit)
		s.machines[i] = &s.leans[i]
	}
	return s.machines
}

// Inputs returns the session's input scratch slice, resized to n. The
// contents are unspecified; callers overwrite every element.
func (s *Session) Inputs(n int) []int {
	if cap(s.inputs) < n {
		s.inputs = cacheline.Make[int](n)
	}
	s.inputs = s.inputs[:n]
	return s.inputs
}

// RNG returns the session's pooled rand.Rand, reset to the deterministic
// stream xrand.New(seed, id) would produce. The stream is valid until the
// next RNG call; sequential uses within one run must not overlap.
func (s *Session) RNG(seed, id uint64) *rand.Rand {
	s.src.Reset(seed, id)
	if s.rng == nil {
		s.rng = rand.New(&s.src)
	}
	return s.rng
}

// SetTrace arms (or, with nil, disarms) the session's flight recorder.
// While armed, every model run through the session appends its step
// events to the recorder. The recorder is write-only from the models'
// side — runs are bit-identical with and without it — and the owner is
// responsible for Reset between instances; the session never resets it.
func (s *Session) SetTrace(r *trace.Recorder) { s.rec = r }

// Trace returns the armed flight recorder, or nil.
func (s *Session) Trace() *trace.Recorder { return s.rec }

// hybridAdversary returns the pooled equivalent of hybrid.NewRandom(seed).
func (s *Session) hybridAdversary(seed uint64) *hybrid.Random {
	s.hadv.Rng = s.RNG(seed, 0x68796272) // same stream id as hybrid.NewRandom
	return &s.hadv
}

// MsgSim returns the session's pooled message-passing simulator: nodes,
// replica maps, machines, network queue and slab, and RNG streams
// retained across runs, with results bit-identical to a fresh
// msgnet.Consensus call.
func (s *Session) MsgSim() *msgnet.Sim {
	if s.msgSim == nil {
		s.msgSim = msgnet.NewSim()
	}
	return s.msgSim
}

// schedEngine returns the session's pooled discrete-event engine, armed
// with cfg.
func (s *Session) schedEngine(cfg sched.Config) (*sched.Engine, error) {
	if s.sched == nil {
		eng, err := sched.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		s.sched = eng
		return eng, nil
	}
	if err := s.sched.Reset(cfg); err != nil {
		return nil, err
	}
	return s.sched, nil
}
