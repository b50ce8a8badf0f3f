package leanconsensus_test

import (
	"errors"
	"math"
	"testing"

	"leanconsensus"
	"leanconsensus/internal/msgnet"
)

func TestElectBasic(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		res, err := leanconsensus.Elect(n, leanconsensus.WithSeed(3))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Winner < 0 || res.Winner >= n {
			t.Errorf("n=%d: winner %d out of range", n, res.Winner)
		}
		if len(res.OpsPerProcess) != n {
			t.Errorf("n=%d: ops slice length %d", n, len(res.OpsPerProcess))
		}
	}
}

func TestElectRejectsIrrelevantOptions(t *testing.T) {
	if _, err := leanconsensus.Elect(4, leanconsensus.WithInputs([]int{0, 1, 0, 1})); err == nil {
		t.Error("Elect accepted WithInputs")
	}
	if _, err := leanconsensus.Elect(4, leanconsensus.WithFailures(0.1)); err == nil {
		t.Error("Elect accepted WithFailures")
	}
	if _, err := leanconsensus.Elect(0); err == nil {
		t.Error("Elect accepted n=0")
	}
}

func TestSimulateMessagePassingBasic(t *testing.T) {
	res, err := leanconsensus.SimulateMessagePassing(leanconsensus.MessagePassingConfig{
		Inputs: []int{0, 1, 0},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 && res.Value != 1 {
		t.Errorf("value %d", res.Value)
	}
	if res.Messages == 0 {
		t.Error("no messages counted")
	}
}

// TestSimulateMessagePassingRejectsBadDelay: a delay distribution that
// draws a negative or NaN delivery delay is caller input, so the run
// fails with an error instead of a panic.
func TestSimulateMessagePassingRejectsBadDelay(t *testing.T) {
	for _, delay := range []leanconsensus.Distribution{
		leanconsensus.Uniform(-1, 1),
		leanconsensus.Uniform(math.NaN(), 1),
	} {
		res, err := leanconsensus.SimulateMessagePassing(leanconsensus.MessagePassingConfig{
			Inputs: []int{0, 1, 0},
			Delay:  delay,
		})
		if !errors.Is(err, msgnet.ErrBadConfig) {
			t.Errorf("delay %v: got result %+v, error %v; want an error wrapping msgnet.ErrBadConfig", delay, res, err)
		}
	}
}

func TestSimulateMessagePassingCrashes(t *testing.T) {
	res, err := leanconsensus.SimulateMessagePassing(leanconsensus.MessagePassingConfig{
		Inputs: []int{0, 1, 0, 1, 0},
		Crash:  []int{1, 2},
		Seed:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[1] != -1 || res.Decisions[2] != -1 {
		t.Error("crashed processes reported decisions")
	}
	if _, err := leanconsensus.SimulateMessagePassing(leanconsensus.MessagePassingConfig{
		Inputs: []int{0, 1},
		Crash:  []int{0},
	}); err == nil {
		t.Error("majority crash accepted")
	}
}

// TestSimulateMessagePassingRepeatedCrashID: the live majority counts
// crashed processes, not crash ids, so an id listed twice crashes one
// process and counts once.
func TestSimulateMessagePassingRepeatedCrashID(t *testing.T) {
	inputs := []int{0, 1, 0, 1}
	res, err := leanconsensus.SimulateMessagePassing(leanconsensus.MessagePassingConfig{
		Inputs: inputs,
		Crash:  []int{0, 0},
	})
	if err != nil {
		t.Fatalf("crash [0 0] among %d processes: %v", len(inputs), err)
	}
	if res.Decisions[0] != -1 {
		t.Errorf("crashed process 0 decided %d", res.Decisions[0])
	}
	for _, crash := range [][]int{{0, 1}, {1, 0, 1}} {
		_, err := leanconsensus.SimulateMessagePassing(leanconsensus.MessagePassingConfig{
			Inputs: inputs,
			Crash:  crash,
		})
		if !errors.Is(err, msgnet.ErrNoMajority) {
			t.Errorf("crash %v among %d processes: error %v, want msgnet.ErrNoMajority", crash, len(inputs), err)
		}
	}
	for _, crash := range [][]int{{4}, {-1}, {0, 0, 4}} {
		if _, err := leanconsensus.SimulateMessagePassing(leanconsensus.MessagePassingConfig{
			Inputs: inputs,
			Crash:  crash,
		}); err == nil {
			t.Errorf("crash %v among %d processes accepted", crash, len(inputs))
		}
	}
}

func TestStatisticalAdversaryViaPublicAPI(t *testing.T) {
	res, err := leanconsensus.Simulate(16,
		leanconsensus.WithAdversary(leanconsensus.StatisticalAdversary(2)),
		leanconsensus.WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 && res.Value != 1 {
		t.Errorf("value %d", res.Value)
	}
}
