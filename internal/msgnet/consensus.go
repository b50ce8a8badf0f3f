package msgnet

import (
	"errors"
	"fmt"

	"leanconsensus/internal/core"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
	"leanconsensus/internal/trace"
	"leanconsensus/internal/xrand"
)

// ConsensusConfig describes a run of lean-consensus over message passing.
type ConsensusConfig struct {
	// Inputs holds one input bit per process.
	Inputs []int
	// Delay is the message-delay noise distribution (required).
	Delay dist.Distribution
	// LinkDelay optionally adds deterministic per-link delays.
	LinkDelay func(from, to int) float64
	// Crash lists process ids crashed from the start. The ABD emulation
	// requires a live majority: len(Crash) must be < n/2 rounded up.
	Crash []int
	// Bounded switches to the combined (Section 8) protocol with the
	// given RMax; zero runs plain lean-consensus.
	RMax int
	// BackupRounds sizes the backup register budget (default 64).
	BackupRounds int
	// Seed fixes all randomness.
	Seed uint64
	// MaxMessages bounds the simulation (0 = default).
	MaxMessages int64
	// Trace, when non-nil, receives flight-recorder events: one start per
	// process, one op per completed emulated register operation (stamped
	// with the network's simulated time), round transitions, decisions,
	// and halts. The ABD emulation has no global view, so round events
	// carry leader -1.
	Trace *trace.Recorder
}

// ConsensusResult reports a message-passing consensus run.
type ConsensusResult struct {
	// Value is the agreed bit.
	Value int
	// Decisions per process (-1 for crashed processes).
	Decisions []int
	// Rounds is the largest racing-counters round reached.
	Rounds int
	// RegisterOps is the total number of emulated register operations.
	RegisterOps int64
	// Messages is the total number of messages sent.
	Messages int64
	// Time is the simulated duration.
	Time float64
}

// Errors returned by Consensus.
var (
	ErrNoMajority   = errors.New("msgnet: crashes leave no live majority")
	ErrDisagreement = errors.New("msgnet: processes decided different values")
	ErrUndecided    = errors.New("msgnet: a process did not decide")
)

// Consensus runs one lean-consensus instance over the emulated registers.
// It is the one-shot form of Sim.Run; callers running many instances
// (the engine's pooled sessions) reuse a Sim instead.
func Consensus(cfg ConsensusConfig) (*ConsensusResult, error) {
	return NewSim().Run(cfg)
}

// Sim is a reusable message-passing consensus runner: the pooled
// analogue of engine.Session for this model. One Sim retains the nodes,
// their replica maps, the lean machines, the network (event queue,
// message slab, RNG streams), and the result buffer across runs.
// Messages are plain values in the slab, so steady-state reruns allocate
// almost nothing. Every pooled structure resets to exactly its
// freshly-constructed state, so a Sim's results are bit-identical to
// Consensus. A Sim is not safe for concurrent use.
type Sim struct {
	nodes []*ABDNode
	leans []core.Lean
	net   Network
	res   ConsensusResult
	crash map[int]float64
}

// NewSim returns an empty simulator; buffers materialize on first use.
func NewSim() *Sim { return &Sim{} }

// Run executes one consensus instance. The returned result is owned by
// the Sim and valid until the next Run.
func (s *Sim) Run(cfg ConsensusConfig) (*ConsensusResult, error) {
	n := len(cfg.Inputs)
	if n == 0 {
		return nil, fmt.Errorf("msgnet: need at least one process")
	}
	for _, b := range cfg.Inputs {
		if b != 0 && b != 1 {
			return nil, fmt.Errorf("msgnet: input bits must be 0 or 1, got %d", b)
		}
	}
	backupRounds := cfg.BackupRounds
	if backupRounds == 0 {
		backupRounds = 64
	}
	var layout register.Layout
	if cfg.RMax > 0 {
		layout = register.Layout{N: n, BackupRounds: backupRounds}
	}

	if s.crash == nil {
		s.crash = make(map[int]float64, len(cfg.Crash))
	} else {
		clear(s.crash)
	}
	for _, c := range cfg.Crash {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("msgnet: crash id %d out of range", c)
		}
		s.crash[c] = 0
	}
	if len(s.crash) >= (n+1)/2 {
		return nil, fmt.Errorf("%w: %d crashes among %d processes", ErrNoMajority, len(s.crash), n)
	}

	if cfg.RMax == 0 {
		// Plain lean-consensus machines come from the session-style pool;
		// the combined protocol keeps per-run construction (its RNG state
		// is cheap next to its backup-register budget).
		if cap(s.leans) < n {
			s.leans = make([]core.Lean, n)
		}
		s.leans = s.leans[:n]
	}
	for i := 0; i < n; i++ {
		var m machine.Machine
		if cfg.RMax > 0 {
			m = core.NewCombined(layout, i, n, cfg.Inputs[i], cfg.RMax,
				xrand.Mix(cfg.Seed, 0x6d636f, uint64(i)))
		} else {
			s.leans[i].Reset(layout, cfg.Inputs[i])
			m = &s.leans[i]
		}
		if i < len(s.nodes) {
			s.nodes[i].Reset(i, n, m)
		} else {
			s.nodes = append(s.nodes, NewABDNode(i, n, m))
		}
		// The algorithm's read-only prefix a_b[0] = 1 becomes preloaded
		// replica state (tag zero, older than every real write).
		s.nodes[i].Preload(layout.A(0, 0), 1)
		s.nodes[i].Preload(layout.A(1, 0), 1)
	}
	nodes := s.nodes[:n]

	if err := s.net.Reset(Config{
		Nodes:       nodes,
		Delay:       cfg.Delay,
		LinkDelay:   cfg.LinkDelay,
		CrashAt:     s.crash,
		Seed:        cfg.Seed,
		MaxMessages: cfg.MaxMessages,
	}); err != nil {
		return nil, err
	}
	net := &s.net
	if cfg.Trace != nil {
		// The nodes and the network live in one package, so the recorder
		// borrows the event loop's clock directly; appends happen in the
		// network's deterministic delivery order.
		for _, a := range nodes {
			a.rec = cfg.Trace
			a.now = func() float64 { return net.now }
		}
	}
	netRes, err := net.Run()
	if err != nil {
		return nil, err
	}

	if cap(s.res.Decisions) < n {
		s.res.Decisions = make([]int, n)
	}
	s.res = ConsensusResult{
		Value:     -1,
		Decisions: s.res.Decisions[:n],
		Time:      netRes.Time,
	}
	out := &s.res
	for i, a := range nodes {
		out.Decisions[i] = -1
		out.RegisterOps += a.Ops()
		out.Messages += a.Messages()
		if _, crashed := s.crash[i]; crashed {
			continue
		}
		if a.Failed() {
			return nil, fmt.Errorf("msgnet: process %d exhausted the backup budget", i)
		}
		if !a.Decided() {
			return nil, fmt.Errorf("%w: process %d (quiescent network)", ErrUndecided, i)
		}
		out.Decisions[i] = a.Decision()
		if r, ok := a.Machine().(machine.Rounder); ok && r.Round() > out.Rounds {
			out.Rounds = r.Round()
		}
		if out.Value < 0 {
			out.Value = out.Decisions[i]
		} else if out.Value != out.Decisions[i] {
			return nil, fmt.Errorf("%w: %v", ErrDisagreement, out.Decisions)
		}
	}
	return out, nil
}
