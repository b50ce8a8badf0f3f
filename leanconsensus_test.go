package leanconsensus_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"leanconsensus"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := leanconsensus.Simulate(8, leanconsensus.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 && res.Value != 1 {
		t.Errorf("value %d", res.Value)
	}
	if res.FirstRound < 2 {
		t.Errorf("first round %d < 2", res.FirstRound)
	}
	if res.LastRound > res.FirstRound+1 {
		t.Errorf("decision spread %d..%d exceeds one round (Lemma 4)", res.FirstRound, res.LastRound)
	}
	if len(res.OpsPerProcess) != 8 || len(res.Decisions) != 8 {
		t.Error("per-process slices have wrong length")
	}
}

func TestSimulateValidity(t *testing.T) {
	for _, input := range []int{0, 1} {
		inputs := []int{input, input, input, input}
		res, err := leanconsensus.Simulate(4,
			leanconsensus.WithInputs(inputs),
			leanconsensus.WithSeed(7),
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != input {
			t.Errorf("unanimous %d decided %d", input, res.Value)
		}
		for _, ops := range res.OpsPerProcess {
			if ops != 8 {
				t.Errorf("unanimous run used %d ops, want 8", ops)
			}
		}
	}
}

func TestSimulateRecordingAndInvariants(t *testing.T) {
	res, err := leanconsensus.Simulate(6,
		leanconsensus.WithSeed(99),
		leanconsensus.WithRecording(),
		leanconsensus.WithDistribution(leanconsensus.TwoPoint(1, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestSimulateBoundedSpace(t *testing.T) {
	// Tiny rmax forces the backup often; agreement must survive.
	for seed := uint64(0); seed < 30; seed++ {
		res, err := leanconsensus.Simulate(8,
			leanconsensus.WithBoundedSpace(2),
			leanconsensus.WithDistribution(leanconsensus.TwoPoint(1, 2)),
			leanconsensus.WithSeed(seed),
		)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != 0 && res.Value != 1 {
			t.Fatalf("seed %d: value %d", seed, res.Value)
		}
	}
}

func TestSimulateFailures(t *testing.T) {
	res, err := leanconsensus.Simulate(64,
		leanconsensus.WithFailures(0.02),
		leanconsensus.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	halted := 0
	for _, h := range res.Halted {
		if h {
			halted++
		}
	}
	if halted == 0 {
		t.Log("no process halted (possible, just unlikely)")
	}
}

func TestSimulateOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts []leanconsensus.Option
	}{
		{"n=0", 0, nil},
		{"bad input", 2, []leanconsensus.Option{leanconsensus.WithInputs([]int{0, 2})}},
		{"input count", 3, []leanconsensus.Option{leanconsensus.WithInputs([]int{0, 1})}},
		{"nil dist", 2, []leanconsensus.Option{leanconsensus.WithDistribution(nil)}},
		{"bad failures", 2, []leanconsensus.Option{leanconsensus.WithFailures(1.0)}},
		{"bad rmax", 2, []leanconsensus.Option{leanconsensus.WithBoundedSpace(0)}},
		{"bad maxops", 2, []leanconsensus.Option{leanconsensus.WithMaxOps(4)}},
	}
	for _, tc := range cases {
		if _, err := leanconsensus.Simulate(tc.n, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSimulateRejectsNaNNoise: noise that makes a completion time NaN
// is caller input with no place in the event order, so Simulate fails
// with a config error instead of returning a result.
func TestSimulateRejectsNaNNoise(t *testing.T) {
	for _, opt := range []leanconsensus.Option{
		leanconsensus.WithDistribution(leanconsensus.Uniform(math.NaN(), 1)),
		leanconsensus.WithWriteDistribution(leanconsensus.Uniform(math.NaN(), 1)),
	} {
		res, err := leanconsensus.Simulate(3, opt)
		if err == nil || !strings.Contains(err.Error(), "NaN completion time") {
			t.Errorf("got result %+v, error %v; want the NaN completion-time error", res, err)
		}
	}
}

func TestSimulateLockstepReportsCap(t *testing.T) {
	// Constant noise is the degenerate schedule the model excludes; the
	// library must fail cleanly rather than loop forever.
	_, err := leanconsensus.Simulate(2,
		leanconsensus.WithDistribution(leanconsensus.Constant(1)),
		leanconsensus.WithInputs([]int{0, 1}),
		leanconsensus.WithMaxOps(1000),
	)
	if err == nil {
		t.Skip("dithered constant schedule terminated (possible with asymmetric dither)")
	}
}

func TestSimulateHybridTheorem14(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		res, err := leanconsensus.SimulateHybrid(leanconsensus.HybridConfig{
			Inputs:    []int{0, 1, 1, 0},
			Quantum:   8,
			Randomize: true,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxOps > 12 {
			t.Fatalf("seed %d: %d ops > 12", seed, res.MaxOps)
		}
	}
}

func TestSimulateHybridValidation(t *testing.T) {
	if _, err := leanconsensus.SimulateHybrid(leanconsensus.HybridConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := leanconsensus.SimulateHybrid(leanconsensus.HybridConfig{
		Inputs: []int{0, 3}, Quantum: 8,
	}); err == nil {
		t.Error("bad input accepted")
	}
}

func TestLiveEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := leanconsensus.Live(ctx, leanconsensus.LiveConfig{
		Inputs: []int{0, 1, 0, 1},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 && res.Value != 1 {
		t.Errorf("value %d", res.Value)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

// Property: for arbitrary seeds and mixed input patterns, Simulate
// produces a valid outcome: a decision bit that someone proposed and a
// decision spread of at most one round.
func TestQuickSimulateSafety(t *testing.T) {
	f := func(seed uint64, pattern uint8) bool {
		inputs := make([]int, 6)
		sum := 0
		for i := range inputs {
			inputs[i] = int(pattern>>i) & 1
			sum += inputs[i]
		}
		res, err := leanconsensus.Simulate(6,
			leanconsensus.WithInputs(inputs),
			leanconsensus.WithSeed(seed),
		)
		if err != nil {
			return false
		}
		if sum == 0 && res.Value != 0 {
			return false
		}
		if sum == 6 && res.Value != 1 {
			return false
		}
		return res.LastRound <= res.FirstRound+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFigure1DistributionsAccessible(t *testing.T) {
	ds := leanconsensus.Figure1Distributions()
	if len(ds) != 6 {
		t.Fatalf("%d distributions, want 6", len(ds))
	}
	for _, d := range ds {
		if _, err := leanconsensus.Simulate(4,
			leanconsensus.WithDistribution(d),
			leanconsensus.WithSeed(3),
		); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}
