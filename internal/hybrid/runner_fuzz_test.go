package hybrid

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"leanconsensus/internal/core"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/register"
	"leanconsensus/internal/trace"
)

// FuzzHybridRunnerMatchesScan runs Runner.Run and scanRun, a reference
// loop that scans for the eligible processes at every step and shows
// every adversary a freshly copied View, on the same configuration under
// each built-in adversary, and requires the same Result and the same
// trace. It fuzzes n (1–40), nil, equal or mixed priorities, at most one
// partial first quantum, the quantum (8–12), the inputs and the seed.
func FuzzHybridRunnerMatchesScan(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(0), uint8(0), uint8(0), uint64(0x5a), uint64(1))
	f.Add(uint8(39), uint8(1), uint8(3), uint8(7), uint8(4), uint64(0xdeadbeef), uint64(2))
	f.Add(uint8(16), uint8(2), uint8(16), uint8(2), uint8(1), uint64(0x0f0f0f0f), uint64(3))
	f.Add(uint8(0), uint8(2), uint8(0), uint8(9), uint8(2), uint64(1), uint64(4))
	scanRec, runRec := trace.NewRecorder(1<<12), trace.NewRecorder(1<<12)
	f.Fuzz(func(t *testing.T, nRaw, priMode, partial, usedRaw, quantumRaw uint8, inputs, seed uint64) {
		n := 1 + int(nRaw)%40
		quantum := 8 + int(quantumRaw)%5
		var pri []int
		switch priMode % 3 {
		case 1:
			pri = slices.Repeat([]int{4}, n)
		case 2:
			r := rand.New(rand.NewSource(int64(seed)))
			pri = make([]int, n)
			for i := range pri {
				pri[i] = r.Intn(3)
			}
		}
		var used []int
		if p := int(partial) % (n + 1); p < n {
			used = make([]int, n)
			used[p] = 1 + int(usedRaw)%quantum
		}
		advs := []func() Adversary{
			func() Adversary { return &RoundRobin{} },
			func() Adversary { return NewRandom(seed) },
			func() Adversary { return Sticky{} },
			func() Adversary { return Laggard{} },
		}
		var runner Runner
		for k, mk := range advs {
			cfg := func(rec *trace.Recorder) Config {
				rec.Reset()
				ms, mem := fuzzMachines(n, inputs)
				return Config{
					N: n, Machines: ms, Mem: mem, Priorities: pri, Quantum: quantum,
					InitialUsed: used, Adversary: mk(), Trace: rec,
				}
			}
			want := scanRun(t, cfg(scanRec))
			got, err := runner.Run(cfg(runRec))
			if err != nil {
				t.Fatalf("adversary %d: %v", k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("adversary %d: runner %+v, scan %+v", k, got, want)
			}
			if g, w := runRec.Events(), scanRec.Events(); !reflect.DeepEqual(g, w) {
				t.Fatalf("adversary %d: runner traced %d events, scan %d, or they differ", k, len(g), len(w))
			}
		}
	})
}

// fuzzMachines builds n lean machines whose inputs are the low bits of
// inputs, over a fresh memory.
func fuzzMachines(n int, inputs uint64) ([]machine.Machine, register.Mem) {
	layout := register.Layout{}
	mem := layout.NewMem(register.DefaultLeanRounds)
	ms := make([]machine.Machine, n)
	for i := range ms {
		ms[i] = core.NewLean(layout, int(inputs>>uint(i))&1)
	}
	return ms, mem
}

// scanRun executes cfg as Run did before the live index: every step asks
// EligibleInto, checks it against the scheduling rules one by one, and
// hands every choice among several processes to the adversary through a
// freshly copied View. It fails t if the run does not terminate.
func scanRun(t *testing.T, cfg Config) *Result {
	n := cfg.N
	pri := cfg.Priorities
	if pri == nil {
		pri = make([]int, n)
	}
	used := cfg.InitialUsed
	if used == nil {
		used = make([]int, n)
	}
	st := NewState(cfg.Machines, cfg.Mem, pri, cfg.Quantum, used)
	res := &Result{Decisions: make([]int, n), OpCounts: make([]int64, n)}
	for i := range n {
		cfg.Trace.Append(trace.Event{Delay: float64(used[i]), Proc: int32(i), Kind: trace.KindStart})
	}
	for st.Live() > 0 {
		if res.Steps > int64(12*n) {
			t.Fatalf("scan: %d steps exceed Theorem 14's 12 per process", res.Steps)
		}
		eligible := st.EligibleInto(nil)
		if want := ruleEligible(st); !slices.Equal(eligible, want) {
			t.Fatalf("scan: EligibleInto %v, rules %v", eligible, want)
		}
		choice := eligible[0]
		if len(eligible) > 1 {
			choice = cfg.Adversary.Choose(&View{
				Current:     st.current,
				QuantumLeft: st.quantumLeft(),
				OpCounts:    slices.Clone(st.ops),
				Decided:     slices.Clone(st.decided),
				Priorities:  slices.Clone(pri),
				Eligible:    slices.Clone(eligible),
			})
			if !slices.Contains(eligible, choice) {
				t.Fatalf("scan: adversary chose ineligible process %d", choice)
			}
		}
		if c := st.current; c >= 0 && c != choice && !st.decided[c] {
			res.Preemptions++
			cfg.Trace.Append(trace.Event{Proc: int32(c), Value: int32(choice), Kind: trace.KindPreempt})
		}
		st.ExecuteOne(choice)
		res.Steps++
		var round int32
		if rd, ok := cfg.Machines[choice].(machine.Rounder); ok {
			round = int32(rd.Round())
		}
		cfg.Trace.Append(trace.Event{Step: st.ops[choice], Proc: int32(choice), Round: round, Kind: trace.KindOp})
		if st.decided[choice] {
			cfg.Trace.Append(trace.Event{
				Step: st.ops[choice], Proc: int32(choice), Round: round,
				Value: int32(st.Decision(choice)), Kind: trace.KindDecide,
			})
		}
	}
	for i := range n {
		res.Decisions[i] = st.Decision(i)
		res.OpCounts[i] = st.ops[i]
		res.MaxOps = max(res.MaxOps, st.ops[i])
	}
	return res
}

// ruleEligible applies the scheduling rules of State.Eligible's doc one
// at a time, in ascending process order.
func ruleEligible(st *State) []int {
	c := st.current
	free := c < 0 || st.decided[c]
	var out []int
	for i := range st.decided {
		switch {
		case st.decided[i]:
		case free, i == c:
			out = append(out, i)
		case st.pri[i] > st.pri[c]:
			out = append(out, i)
		case st.remaining[c] <= 0 && st.pri[i] == st.pri[c]:
			out = append(out, i)
		}
	}
	return out
}

// TestRandomRunLeavesViewBuffersUnset requires a fresh Runner under
// *Random with nil priorities, which never builds a View, to leave the
// view's buffers unallocated.
func TestRandomRunLeavesViewBuffersUnset(t *testing.T) {
	const n = 64
	ms, mem := fuzzMachines(n, 0x5a5a5a5a5a5a5a5a)
	var r Runner
	if _, err := r.Run(Config{N: n, Machines: ms, Mem: mem, Quantum: 8, Adversary: NewRandom(7)}); err != nil {
		t.Fatal(err)
	}
	if r.viewOps != nil || r.viewDecided != nil || r.viewPri != nil {
		t.Fatalf("view buffers allocated: %d ops, %d decided, %d priorities",
			len(r.viewOps), len(r.viewDecided), len(r.viewPri))
	}
}
