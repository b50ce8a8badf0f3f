package sched_test

import (
	"math"
	"reflect"
	"testing"

	"leanconsensus/internal/core"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
	"leanconsensus/internal/sched"
	"leanconsensus/internal/trace"
)

func TestAdversaryBounds(t *testing.T) {
	cases := []struct {
		adv   sched.Adversary
		bound float64
	}{
		{sched.Zero{}, 0},
		{sched.Constant{D: 3}, 3},
		{sched.Stagger{Gap: 5}, 0},
		{sched.AntiLeader{M: 2}, 2},
		{sched.HalfSplit{M: 4}, 4},
	}
	for _, tc := range cases {
		if got := tc.adv.Bound(); got != tc.bound {
			t.Errorf("%T: Bound() = %v, want %v", tc.adv, got, tc.bound)
		}
		// Every produced delay respects the bound.
		for i := 0; i < 4; i++ {
			for j := int64(1); j <= 8; j++ {
				if d := tc.adv.StepDelay(i, j, nil); d < 0 || d > tc.adv.Bound() {
					t.Errorf("%T: StepDelay(%d,%d) = %v outside [0,%v]", tc.adv, i, j, d, tc.adv.Bound())
				}
			}
		}
	}
}

func TestStaggerStartDelays(t *testing.T) {
	a := sched.Stagger{Gap: 2.5}
	for i := 0; i < 5; i++ {
		if got := a.StartDelay(i); got != 2.5*float64(i) {
			t.Errorf("StartDelay(%d) = %v", i, got)
		}
	}
}

func TestHalfSplitTargetsEvenProcesses(t *testing.T) {
	a := sched.HalfSplit{M: 1}
	if a.StepDelay(0, 1, nil) != 1 || a.StepDelay(2, 1, nil) != 1 {
		t.Error("even processes not delayed")
	}
	if a.StepDelay(1, 1, nil) != 0 || a.StepDelay(3, 1, nil) != 0 {
		t.Error("odd processes delayed")
	}
}

// TestViewLeader checks the engine's View implementation through an
// adversary that records what it observes.
func TestViewLeader(t *testing.T) {
	layout := register.Layout{}
	mem := register.NewSimMem(64)
	layout.InitMem(mem)
	inputs := []int{0, 1, 0, 1}
	ms := make([]machine.Machine, len(inputs))
	for i, b := range inputs {
		ms[i] = core.NewLean(layout, b)
	}
	probe := &viewProbe{n: len(inputs)}
	eng, err := sched.NewEngine(sched.Config{
		N: len(inputs), Machines: ms, Mem: mem,
		ReadNoise: dist.Exponential{MeanVal: 1},
		Adversary: probe,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !probe.sawView {
		t.Fatal("adversary never received a view")
	}
	if probe.badLeader {
		t.Error("view reported a leader whose round was not maximal among live processes")
	}
	if probe.badN {
		t.Error("view reported a wrong process count")
	}
}

type viewProbe struct {
	n         int
	sawView   bool
	badLeader bool
	badN      bool
}

func (p *viewProbe) StartDelay(int) float64 { return 0 }

func (p *viewProbe) StepDelay(_ int, _ int64, v sched.View) float64 {
	if v == nil {
		return 0
	}
	p.sawView = true
	if v.N() != p.n {
		p.badN = true
	}
	leader, round := v.Leader()
	if leader >= 0 {
		for i := 0; i < v.N(); i++ {
			if !v.Decided(i) && !v.Halted(i) && v.Round(i) > round {
				p.badLeader = true
			}
		}
	}
	return 0
}

func (p *viewProbe) Bound() float64 { return 0 }

// TestZeroScheduleNilAndZeroAgree checks that a nil adversary and Zero{}
// give the same result, history and trace; the engine makes no adversary
// call for either.
func TestZeroScheduleNilAndZeroAgree(t *testing.T) {
	type outcome struct {
		res   *sched.Result
		hist  []register.Event
		trace []trace.Event
	}
	do := func(adv sched.Adversary, noise dist.Distribution, n int, seed uint64) outcome {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(seed>>i) & 1
		}
		ms, mem := leanSetup(inputs)
		hist := &register.History{}
		rec := trace.NewRecorder(1 << 12)
		res := run(t, sched.Config{
			N: n, Machines: ms, Mem: mem, ReadNoise: noise, Adversary: adv,
			FailureProb: 0.01, Seed: seed, History: hist, Trace: rec,
		})
		return outcome{res, hist.Events, rec.Events()}
	}
	for _, noise := range []dist.Distribution{dist.Exponential{MeanVal: 1}, dist.TwoPoint{A: 1, B: 2}} {
		for _, n := range []int{1, 3, 8, 17} {
			for seed := uint64(1); seed <= 3; seed++ {
				if a, b := do(nil, noise, n, seed), do(sched.Zero{}, noise, n, seed); !reflect.DeepEqual(a, b) {
					t.Fatalf("%v n=%d seed %d: nil adversary and Zero{} differ", noise, n, seed)
				}
			}
		}
	}
}

// countingProbe is an adaptive adversary with bound 0 that counts the
// steps it is consulted on.
type countingProbe struct{ calls int64 }

func (p *countingProbe) StartDelay(int) float64 { return 0 }

func (p *countingProbe) StepDelay(_ int, _ int64, v sched.View) float64 {
	if v != nil {
		p.calls++
	}
	return 0
}

func (p *countingProbe) Bound() float64 { return 0 }

// TestZeroBoundAdversaryConsultedEveryStep checks that an adversary whose
// Bound is 0 still sees the view before every operation: with no failures
// and every process deciding, each executed operation was scheduled by
// exactly one StepDelay call.
func TestZeroBoundAdversaryConsultedEveryStep(t *testing.T) {
	for _, n := range []int{1, 4, 9} {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i % 2
		}
		ms, mem := leanSetup(inputs)
		probe := &countingProbe{}
		res := run(t, sched.Config{
			N: n, Machines: ms, Mem: mem, ReadNoise: dist.Exponential{MeanVal: 1},
			Adversary: probe, Seed: uint64(n),
		})
		if probe.calls != res.TotalOps {
			t.Errorf("n=%d: adversary consulted %d times for %d operations", n, probe.calls, res.TotalOps)
		}
	}
}

// badDelay is an adversary whose step delays fall outside its bound.
type badDelay struct{ d, bound float64 }

func (a badDelay) StartDelay(int) float64                   { return 0 }
func (a badDelay) StepDelay(int, int64, sched.View) float64 { return a.d }
func (a badDelay) Bound() float64                           { return a.bound }

// TestOutOfRangeDelayPanics checks that a step delay outside [0, Bound()]
// stops the run with the engine's panic message.
func TestOutOfRangeDelayPanics(t *testing.T) {
	for _, tc := range []struct {
		adv  badDelay
		want string
	}{
		{badDelay{d: 2, bound: 1}, "sched: adversary delay 2 outside [0, 1]"},
		{badDelay{d: -0.5, bound: 1}, "sched: adversary delay -0.5 outside [0, 1]"},
		{badDelay{d: math.NaN(), bound: 0}, "sched: adversary delay NaN outside [0, 0]"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("delay %v, bound %v: recovered %v, want %q", tc.adv.d, tc.adv.bound, got, tc.want)
				}
			}()
			ms, mem := leanSetup([]int{0, 1})
			eng, err := sched.NewEngine(sched.Config{
				N: 2, Machines: ms, Mem: mem, ReadNoise: dist.Exponential{MeanVal: 1}, Adversary: tc.adv, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}()
	}
}
