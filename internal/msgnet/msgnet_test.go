package msgnet_test

import (
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/msgnet"
	"leanconsensus/internal/register"
	"leanconsensus/internal/xrand"
)

func TestConsensusSolo(t *testing.T) {
	for _, input := range []int{0, 1} {
		res, err := msgnet.Consensus(msgnet.ConsensusConfig{
			Inputs: []int{input},
			Delay:  dist.Exponential{MeanVal: 1},
			Seed:   uint64(input) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != input {
			t.Errorf("solo decided %d, want %d", res.Value, input)
		}
		if res.RegisterOps != 8 {
			t.Errorf("solo used %d register ops, want 8 (Lemma 3)", res.RegisterOps)
		}
	}
}

func TestConsensusUnanimous(t *testing.T) {
	inputs := []int{1, 1, 1, 1, 1}
	res, err := msgnet.Consensus(msgnet.ConsensusConfig{
		Inputs: inputs,
		Delay:  dist.Exponential{MeanVal: 1},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 {
		t.Errorf("decided %d, want 1 (validity)", res.Value)
	}
	if res.RegisterOps != int64(8*len(inputs)) {
		t.Errorf("%d register ops, want %d (8 per process)", res.RegisterOps, 8*len(inputs))
	}
}

func TestConsensusMixedManySeeds(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		inputs := []int{0, 1, 0, 1, 1}
		res, err := msgnet.Consensus(msgnet.ConsensusConfig{
			Inputs: inputs,
			Delay:  dist.Exponential{MeanVal: 1},
			Seed:   seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != 0 && res.Value != 1 {
			t.Fatalf("seed %d: value %d", seed, res.Value)
		}
		if res.Messages == 0 || res.Time <= 0 {
			t.Fatalf("seed %d: implausible stats %+v", seed, res)
		}
	}
}

func TestConsensusWithMinorityCrashes(t *testing.T) {
	// 7 processes, 3 crashed from the start: a bare majority of 4
	// survives; the survivors must still decide and agree.
	for seed := uint64(0); seed < 20; seed++ {
		inputs := []int{0, 1, 0, 1, 0, 1, 0}
		res, err := msgnet.Consensus(msgnet.ConsensusConfig{
			Inputs: inputs,
			Delay:  dist.Exponential{MeanVal: 1},
			Crash:  []int{1, 3, 5},
			Seed:   seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range []int{1, 3, 5} {
			if res.Decisions[c] != -1 {
				t.Errorf("seed %d: crashed process %d reported a decision", seed, c)
			}
		}
		for _, l := range []int{0, 2, 4, 6} {
			if res.Decisions[l] != res.Value {
				t.Errorf("seed %d: live process %d decided %d, want %d", seed, l, res.Decisions[l], res.Value)
			}
		}
	}
}

func TestConsensusMajorityCrashRejected(t *testing.T) {
	_, err := msgnet.Consensus(msgnet.ConsensusConfig{
		Inputs: []int{0, 1, 0, 1},
		Delay:  dist.Exponential{MeanVal: 1},
		Crash:  []int{0, 1},
	})
	if err == nil {
		t.Error("half-crashed configuration accepted (ABD needs a live majority)")
	}
}

func TestConsensusBoundedSpaceOverMessages(t *testing.T) {
	// The Section 8 combined protocol also runs over message passing.
	for seed := uint64(0); seed < 15; seed++ {
		res, err := msgnet.Consensus(msgnet.ConsensusConfig{
			Inputs: []int{0, 1, 0, 1, 1},
			Delay:  dist.TwoPoint{A: 1, B: 2},
			RMax:   3,
			Seed:   seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != 0 && res.Value != 1 {
			t.Fatalf("seed %d: value %d", seed, res.Value)
		}
	}
}

func TestConsensusDeterministicBySeed(t *testing.T) {
	run := func() *msgnet.ConsensusResult {
		res, err := msgnet.Consensus(msgnet.ConsensusConfig{
			Inputs: []int{0, 1, 1, 0},
			Delay:  dist.Uniform{Lo: 0, Hi: 2},
			Seed:   777,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Value != b.Value || a.Messages != b.Messages || a.Time != b.Time || a.Rounds != b.Rounds {
		t.Errorf("same seed differed: %+v vs %+v", a, b)
	}
}

func TestConsensusLinkDelays(t *testing.T) {
	// An adversarial link matrix slowing one process's links must not
	// break agreement (it is just more noise asymmetry).
	res, err := msgnet.Consensus(msgnet.ConsensusConfig{
		Inputs: []int{0, 1, 0},
		Delay:  dist.Exponential{MeanVal: 1},
		LinkDelay: func(from, to int) float64 {
			if from == 0 || to == 0 {
				return 5
			}
			return 0
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 && res.Value != 1 {
		t.Errorf("value %d", res.Value)
	}
}

func TestConsensusInputValidation(t *testing.T) {
	if _, err := msgnet.Consensus(msgnet.ConsensusConfig{
		Delay: dist.Exponential{MeanVal: 1},
	}); err == nil {
		t.Error("empty inputs accepted")
	}
	if _, err := msgnet.Consensus(msgnet.ConsensusConfig{
		Inputs: []int{2}, Delay: dist.Exponential{MeanVal: 1},
	}); err == nil {
		t.Error("non-bit input accepted")
	}
}

// abdProbe runs a scripted machine against ABD to check register
// semantics directly (write then read back, across processes).
type abdProbe struct {
	script  []machine.Op
	results []uint32
	idx     int
}

func (m *abdProbe) Begin() machine.Op { return m.script[0] }

func (m *abdProbe) Step(result uint32) (machine.Op, machine.Status) {
	m.results = append(m.results, result)
	m.idx++
	if m.idx >= len(m.script) {
		return machine.Op{}, machine.Decided
	}
	return m.script[m.idx], machine.Running
}

func (m *abdProbe) Decision() int { return 0 }

func TestABDReadSeesQuorumWrite(t *testing.T) {
	// Process 0 writes 7 to register 5 and reads it back; process 1 then
	// (by heavy link delay) reads register 5 and must see 7, because the
	// write completed at a majority before process 1's read started.
	w := &abdProbe{script: []machine.Op{
		{Kind: register.OpWrite, Reg: 5, Val: 7},
		{Kind: register.OpRead, Reg: 5},
	}}
	r := &abdProbe{script: []machine.Op{
		{Kind: register.OpRead, Reg: 5},
	}}
	nodes := []*msgnet.ABDNode{
		msgnet.NewABDNode(0, 3, w),
		msgnet.NewABDNode(1, 3, r),
		msgnet.NewABDNode(2, 3, &abdProbe{script: []machine.Op{{Kind: register.OpRead, Reg: 9}}}),
	}
	net, err := msgnet.NewNetwork(msgnet.Config{
		Nodes: nodes,
		Delay: dist.Constant{V: 0.001},
		LinkDelay: func(from, to int) float64 {
			if from == 1 || to == 1 {
				return 10 // process 1 acts long after the write finished
			}
			return 0
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if w.results[1] != 7 {
		t.Errorf("writer read back %d, want 7", w.results[1])
	}
	if r.results[0] != 7 {
		t.Errorf("late reader saw %d, want 7 (regular-register violation)", r.results[0])
	}
}

// TestABDWriteOrderByTags: two concurrent writers with the same timestamp
// are ordered by writer id; a read that starts strictly after both writes
// completed must return the higher-tagged value.
func TestABDWriteOrderByTags(t *testing.T) {
	w1 := &abdProbe{script: []machine.Op{{Kind: register.OpWrite, Reg: 1, Val: 10}}}
	w2 := &abdProbe{script: []machine.Op{{Kind: register.OpWrite, Reg: 1, Val: 20}}}
	r := &abdProbe{script: []machine.Op{{Kind: register.OpRead, Reg: 1}}}
	nodes := []*msgnet.ABDNode{
		msgnet.NewABDNode(0, 3, w1),
		msgnet.NewABDNode(1, 3, w2),
		msgnet.NewABDNode(2, 3, r),
	}
	net, err := msgnet.NewNetwork(msgnet.Config{
		Nodes: nodes,
		Delay: dist.Constant{V: 0.001},
		LinkDelay: func(from, to int) float64 {
			// Only the reader's outbound messages are slow: its query
			// reaches every replica long after both writes (which finish
			// within ~0.01) have been applied. Both writes query an empty
			// register, so both use timestamp 1; the writer-id tie-break
			// makes (1, writer 1) the winner.
			if from == 2 {
				return 100
			}
			return 0
		},
		Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if r.results[0] != 20 {
		t.Errorf("reader saw %d, want the higher-tagged write 20", r.results[0])
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := msgnet.NewNetwork(msgnet.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := msgnet.NewNetwork(msgnet.Config{
		Nodes: []*msgnet.ABDNode{msgnet.NewABDNode(0, 1, &abdProbe{script: []machine.Op{{Kind: register.OpRead, Reg: 0}}})},
	}); err == nil {
		t.Error("missing delay distribution accepted")
	}
}

// Property-style sweep: across seeds and sizes, unanimous runs satisfy
// validity and mixed runs agree; crashes below majority never block.
func TestConsensusSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("message-passing sweep in -short mode")
	}
	for _, n := range []int{2, 3, 5, 8} {
		for seed := uint64(0); seed < 10; seed++ {
			rng := xrand.New(seed, uint64(n))
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = rng.Intn(2)
			}
			var crash []int
			if n >= 5 {
				crash = []int{0} // one crash, still a live majority
			}
			res, err := msgnet.Consensus(msgnet.ConsensusConfig{
				Inputs: inputs,
				Delay:  dist.Exponential{MeanVal: 1},
				Crash:  crash,
				Seed:   seed,
			})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			allSame := true
			for _, b := range inputs[1:] {
				if b != inputs[0] {
					allSame = false
				}
			}
			if allSame && len(crash) == 0 && res.Value != inputs[0] {
				t.Fatalf("n=%d seed=%d: validity violated", n, seed)
			}
		}
	}
}
