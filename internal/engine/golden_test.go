package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"leanconsensus/internal/core"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/hybrid"
	"leanconsensus/internal/machine"
	"leanconsensus/internal/msgnet"
	"leanconsensus/internal/register"
	"leanconsensus/internal/sched"
	"leanconsensus/internal/trace"
)

// goldenSHA256 is the digest of the golden battery below. It pins the
// sched and hybrid engines' observable output — results, traces,
// histories and the views handed to adversaries — across commits, where
// every other determinism test compares a build only with itself. An
// engine optimization must leave it unchanged; a change that alters
// output on purpose — or registers a distribution or adversary, which
// extends the battery — regenerates it and says why.
const goldenSHA256 = "095872bffb79924bc068f3f8fedecb074a421fbc55d4e000f867e7d6fa4a559d"

// goldenNs are the instance sizes every model battery runs at.
var goldenNs = []int{1, 2, 3, 5, 8, 16, 64}

// TestEngineGolden hashes a fixed battery of sched and hybrid runs and
// compares the digest with goldenSHA256. The battery covers pooled
// sessions traced and untraced over every registered noise distribution
// (except constant, which runs lockstep to the operation cap) and every
// adversary each model accepts; raw sched.Engine runs with failures,
// contention, an adaptive crasher, a history, and an all-ties queue; and
// direct hybrid runs with priorities, a partial first quantum and every
// built-in adversary.
func TestEngineGolden(t *testing.T) {
	d := &digest{h: sha256.New()}
	goldenSessions(t, d)
	goldenRawSched(t, d)
	goldenRawHybrid(d)
	if got := d.sum(); got != goldenSHA256 {
		t.Fatalf("engine output digest %s, want %s: sched or hybrid output changed", got, goldenSHA256)
	}
}

// wideGoldenSHA256 is the digest of the wide sched battery below, under
// the same rule as goldenSHA256.
const wideGoldenSHA256 = "01db9e9e951374d15d4da5ab043631b6d8637f6432e322ae78df92ff6ff7e1f9"

// TestSchedWideGolden hashes raw sched.Engine runs at sizes goldenNs never
// reaches: between 17 and 63, and above 64, where a queue over a
// power-of-two number of slots is partly empty and more than six levels
// deep. It covers continuous and two-point noise with dithering, a
// lockstep queue where every completion ties and only the process index
// orders them, staggered starts with dithering off, an adaptive
// adversary, and failures that retire processes mid-run; every run is
// traced and keeps a history.
func TestSchedWideGolden(t *testing.T) {
	d := &digest{h: sha256.New()}
	ns := []int{17, 33, 65, 100, 129, 257}
	goldenSchedCases(t, d, "wide-sched|", []rawSchedCase{
		{name: "exponential", noise: dist.Exponential{MeanVal: 1}, ns: ns, withTrace: true},
		{name: "two-point", noise: dist.TwoPoint{A: 1, B: 2}, ns: ns, withTrace: true},
		{name: "ties", noise: dist.Constant{V: 1}, dither: -1, maxOps: 24, ns: ns, withTrace: true},
		{name: "stagger", noise: dist.TwoPoint{A: 1, B: 2}, adv: sched.Stagger{Gap: 1}, dither: -1, maxOps: 1 << 12, ns: ns, withTrace: true},
		{name: "antileader", noise: dist.Exponential{MeanVal: 1}, adv: sched.AntiLeader{M: 1}, ns: ns, withTrace: true},
		{name: "failures", noise: dist.Exponential{MeanVal: 1}, failure: 0.02, ns: ns, withTrace: true},
	})
	if got := d.sum(); got != wideGoldenSHA256 {
		t.Fatalf("wide sched output digest %s, want %s: sched output changed", got, wideGoldenSHA256)
	}
}

// msgnetGoldenSHA256 is the digest of the msgnet battery below. It pins
// the message-passing engine's output — results, traces, errors and the
// network's delivery counts — across commits, under the same rule as
// goldenSHA256.
const msgnetGoldenSHA256 = "8635883fe2839689da07c649495c830f59a9edfa5d8b0c311619d6f026e4aed4"

// msgnetGoldenNs are the instance sizes the msgnet battery runs at.
var msgnetGoldenNs = []int{1, 2, 3, 5, 8, 16}

// TestMsgnetGolden hashes a fixed battery of msgnet runs and compares the
// digest with msgnetGoldenSHA256. The battery covers pooled sessions
// traced and untraced over every registered noise distribution except
// constant; direct msgnet.Sim runs with crashes, link delays and the
// bounded (RMax > 0) protocol; one Network whose process crashes mid-run;
// and constant noise under a small message cap, whose runaway error is
// hashed. Two-point, lower-bound and geometric noise put many deliveries
// at exactly the same time, so only the send order separates them.
func TestMsgnetGolden(t *testing.T) {
	d := &digest{h: sha256.New()}
	goldenMsgnetSessions(t, d)
	goldenMsgnetSims(d)
	goldenMsgnetCrashAt(t, d)
	if got := d.sum(); got != msgnetGoldenSHA256 {
		t.Fatalf("msgnet output digest %s, want %s: msgnet output changed", got, msgnetGoldenSHA256)
	}
}

// goldenNoises returns every registered distribution except constant.
func goldenNoises(t *testing.T) []dist.Distribution {
	var noises []dist.Distribution
	for _, name := range dist.Names() {
		if name == "constant" {
			continue
		}
		noise, err := dist.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		noises = append(noises, noise)
	}
	return noises
}

// goldenMsgnetSessions runs the msgnet model on one pooled session per
// traced setting, as the arena's workers do.
func goldenMsgnetSessions(t *testing.T, d *digest) {
	m, err := engine.ByName("msgnet")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		sess := engine.NewSession()
		var rec *trace.Recorder
		if traced {
			rec = trace.NewRecorder(1 << 14)
			sess.SetTrace(rec)
		}
		for _, noise := range goldenNoises(t) {
			for _, n := range msgnetGoldenNs {
				// n=16 delivers ~100k messages an instance; one rep
				// keeps the battery to seconds.
				reps := 2
				if n >= 16 {
					reps = 1
				}
				for rep := 0; rep < reps; rep++ {
					seed := uint64(n)*1000 + uint64(rep)
					if rec != nil {
						rec.Reset()
					}
					r, err := m.Run(engine.Spec{
						Key: "golden", N: n, Inputs: goldenInputs(n, seed), Noise: noise, Seed: seed,
					}, sess)
					d.str("msgnet|" + noise.String())
					d.i64(int64(n))
					d.err(err)
					d.i64(int64(r.Value))
					d.i64(int64(r.FirstRound))
					d.i64(int64(r.LastRound))
					d.i64(r.Ops)
					d.f64(r.SimTime)
					d.trace(rec)
				}
			}
		}
	}
}

// goldenMsgnetSims drives one reused msgnet.Sim through the options the
// engine layer never sets: crashes, link delays, the bounded protocol,
// and a message cap that stops lockstep constant noise.
func goldenMsgnetSims(d *digest) {
	sim := msgnet.NewSim()
	rec := trace.NewRecorder(1 << 14)
	skew := func(from, to int) float64 { return 0.25 * float64((from*3+to)%4) }
	cases := []struct {
		name   string
		noise  dist.Distribution
		crash  []int
		link   func(from, to int) float64
		rmax   int
		maxMsg int64
		ns     []int
	}{
		{name: "crash", noise: dist.Exponential{MeanVal: 1}, crash: []int{0}, ns: []int{3, 5, 8}},
		{name: "crash-two", noise: dist.TwoPoint{A: 1, B: 2}, crash: []int{1, 4}, ns: []int{5, 8}},
		{name: "link", noise: dist.Uniform{Lo: 0, Hi: 2}, link: skew, ns: []int{2, 3, 5, 8}},
		{name: "link-ties", noise: dist.Geometric{P: 0.5}, link: skew, crash: []int{2}, ns: []int{3, 8}},
		{name: "bounded", noise: dist.Exponential{MeanVal: 1}, rmax: 2, ns: []int{1, 3, 5, 8}},
		{name: "bounded-ties", noise: dist.TwoPoint{A: 1, B: 2}, rmax: 1, crash: []int{0}, ns: []int{3, 5}},
		{name: "constant-cap", noise: dist.Constant{V: 1}, maxMsg: 4000, ns: []int{2, 3, 5}},
	}
	for _, c := range cases {
		for _, n := range c.ns {
			for rep := 0; rep < 2; rep++ {
				seed := uint64(n)*7919 + uint64(rep)
				rec.Reset()
				res, err := sim.Run(msgnet.ConsensusConfig{
					Inputs: goldenInputs(n, seed), Delay: c.noise, LinkDelay: c.link, Crash: c.crash,
					RMax: c.rmax, Seed: seed, MaxMessages: c.maxMsg, Trace: rec,
				})
				d.str("msgnet-sim|" + c.name)
				d.i64(int64(n))
				d.err(err)
				if err == nil {
					d.i64(int64(res.Value))
					d.ints(res.Decisions)
					d.i64(int64(res.Rounds))
					d.i64(res.RegisterOps)
					d.i64(res.Messages)
					d.f64(res.Time)
				}
				d.trace(rec)
			}
		}
	}
}

// goldenMsgnetCrashAt runs ABD nodes on a bare Network whose process 1
// crashes mid-run, so deliveries to it are dropped from then on.
func goldenMsgnetCrashAt(t *testing.T, d *digest) {
	const n = 5
	for rep := 0; rep < 3; rep++ {
		seed := uint64(rep) + 17
		ms, _ := goldenLean(goldenInputs(n, seed))
		nodes := make([]*msgnet.ABDNode, n)
		abds := make([]*msgnet.ABDNode, n)
		for i := range nodes {
			abds[i] = msgnet.NewABDNode(i, n, ms[i])
			abds[i].Preload(register.Layout{}.A(0, 0), 1)
			abds[i].Preload(register.Layout{}.A(1, 0), 1)
			nodes[i] = abds[i]
		}
		net, err := msgnet.NewNetwork(msgnet.Config{
			Nodes: nodes, Delay: dist.Exponential{MeanVal: 1},
			CrashAt: map[int]float64{1: 2.5 + float64(rep), 3: -1}, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run()
		d.str("msgnet-crashat")
		d.err(err)
		if err == nil {
			d.i64(res.Delivered)
			d.i64(res.Dropped)
			d.f64(res.Time)
			d.bool(res.AllDone)
		}
		for _, a := range abds {
			d.bool(a.Decided())
			d.i64(a.Ops())
			d.i64(a.Messages())
			if a.Decided() {
				d.i64(int64(a.Decision()))
			}
		}
	}
}

// goldenSessions runs both clocked and clockless models on one pooled
// session per (model, traced) pair, as the arena's workers do.
func goldenSessions(t *testing.T, d *digest) {
	var noises []dist.Distribution
	for _, name := range dist.Names() {
		if name == "constant" {
			continue
		}
		noise, err := dist.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		noises = append(noises, noise)
	}
	for _, model := range []string{"sched", "hybrid"} {
		m, err := engine.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		modelNoises := noises
		if engine.IgnoresNoise(m) {
			modelNoises = noises[:1]
		}
		for _, traced := range []bool{false, true} {
			sess := engine.NewSession()
			var rec *trace.Recorder
			if traced {
				rec = trace.NewRecorder(1 << 14)
				sess.SetTrace(rec)
			}
			for _, advName := range engine.AdversaryNames() {
				adv, err := engine.ResolveAdversary(advName)
				if err != nil {
					t.Fatal(err)
				}
				if !engine.AcceptsAdversary(m, adv) {
					continue
				}
				for _, noise := range modelNoises {
					for _, n := range goldenNs {
						for rep := 0; rep < 3; rep++ {
							seed := uint64(n)*1000 + uint64(rep)
							spec := engine.Spec{
								Key: "golden", N: n, Inputs: goldenInputs(n, seed),
								Noise: noise, Adversary: adv, Seed: seed,
							}
							if rec != nil {
								rec.Reset()
							}
							r, err := m.Run(spec, sess)
							d.str(model + "|" + adv.Name() + "|" + noise.String())
							d.i64(int64(n))
							d.err(err)
							d.i64(int64(r.Value))
							d.i64(int64(r.FirstRound))
							d.i64(int64(r.LastRound))
							d.i64(r.Ops)
							d.f64(r.SimTime)
							d.trace(rec)
						}
					}
				}
			}
		}
	}
}

// goldenRawSched drives one reused sched.Engine through the features the
// engine layer never arms: random failures, contention, an adaptive
// crasher, a history, and a lockstep queue where every completion ties.
func goldenRawSched(t *testing.T, d *digest) {
	// The crasher kills the current leader on every fifth operation
	// index, so it both reads the view and strikes mid-run.
	crasher := func(i int, j int64, v sched.View) bool {
		leader, _ := v.Leader()
		return j%5 == 0 && leader == i && v.Round(i) >= 1 && !v.Decided(i)
	}
	goldenSchedCases(t, d, "raw-sched|", []rawSchedCase{
		{name: "failures", noise: dist.Exponential{MeanVal: 1}, failure: 0.02, ns: []int{1, 3, 8, 16, 64}},
		{name: "contention", noise: dist.Uniform{Lo: 0, Hi: 2}, cont: &sched.Contention{HalfLife: 1, Penalty: 0.5}, ns: []int{2, 5, 16, 64}},
		{name: "crasher", noise: dist.Exponential{MeanVal: 1}, crasher: crasher, ns: []int{3, 8, 16, 64}, withTrace: true},
		{name: "everything", noise: dist.Geometric{P: 0.5}, adv: sched.AntiLeader{M: 1}, failure: 0.01,
			cont: &sched.Contention{HalfLife: 2, Penalty: 0.25}, crasher: crasher, ns: []int{3, 8, 16}, withTrace: true},
		{name: "ties", noise: dist.Constant{V: 1}, dither: -1, maxOps: 64, ns: []int{1, 2, 5, 16}, withTrace: true},
		{name: "ties-stagger", noise: dist.Constant{V: 1}, adv: sched.Stagger{Gap: 1}, dither: -1, maxOps: 64, ns: []int{3, 16}, withTrace: true},
	})
}

// rawSchedCase is one sched.Config family run at each of its sizes.
type rawSchedCase struct {
	name      string
	noise     dist.Distribution
	adv       sched.Adversary
	failure   float64
	cont      *sched.Contention
	crasher   func(int, int64, sched.View) bool
	dither    float64
	maxOps    int64
	ns        []int
	withTrace bool
}

// goldenSchedCases runs every case four times per size on one reused
// sched.Engine and hashes the results, histories and, where the case
// asks for it, traces.
func goldenSchedCases(t *testing.T, d *digest, prefix string, cases []rawSchedCase) {
	eng := &sched.Engine{}
	res := &sched.Result{}
	rec := trace.NewRecorder(1 << 14)
	hist := &register.History{}
	for _, c := range cases {
		for _, n := range c.ns {
			for rep := 0; rep < 4; rep++ {
				seed := uint64(n)*7919 + uint64(rep)
				ms, mem := goldenLean(goldenInputs(n, seed))
				hist.Events = hist.Events[:0]
				rec.Reset()
				cfg := sched.Config{
					N: n, Machines: ms, Mem: mem, ReadNoise: c.noise, Adversary: c.adv,
					FailureProb: c.failure, Seed: seed, DitherScale: c.dither,
					MaxOpsPerProc: c.maxOps, History: hist, Crasher: c.crasher, Contention: c.cont,
				}
				if c.withTrace {
					cfg.Trace = rec
				}
				if err := eng.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				err := eng.RunInto(res)
				d.str(prefix + c.name)
				d.i64(int64(n))
				d.err(err)
				d.schedResult(res)
				d.i64(int64(len(hist.Events)))
				for _, ev := range hist.Events {
					d.i64(ev.Seq)
					d.f64(ev.Time)
					d.i64(int64(ev.Proc))
					d.i64(int64(ev.Kind))
					d.i64(int64(ev.Reg))
					d.i64(int64(ev.Val))
				}
				if c.withTrace {
					d.trace(rec)
				}
			}
		}
	}
}

// goldenRawHybrid calls hybrid.Run directly with the configurations the
// engine layer never produces: explicit and mixed priorities, a partial
// first quantum, every built-in adversary, a view-recording adversary, and
// a quantum too small to terminate.
func goldenRawHybrid(d *digest) {
	rec := trace.NewRecorder(1 << 14)
	goldenHybridCases(d, rec, "raw-hybrid|", goldenNs, []hybridPriorities{priNil, priEqual, priMod3, priOneTop})
	// A quantum below Theorem 14's 8 lets round-robin livelock the race;
	// the step cap turns that into an error whose text is pinned too.
	for _, n := range []int{2, 3, 5} {
		goldenHybridRun(d, rec, "raw-hybrid|small-quantum", hybrid.Config{
			N: n, Quantum: 2, Adversary: &hybrid.RoundRobin{}, MaxSteps: 2000,
		}, uint64(n))
	}
}

// hybridWideGoldenSHA256 is the digest of the wide hybrid battery below,
// under the same rule as goldenSHA256.
const hybridWideGoldenSHA256 = "22c2eecfaf0fd8b15b3672599f435871f07b942861c862f744587051d6a6a024"

// TestHybridWideGolden hashes raw hybrid.Run runs at sizes goldenNs never
// reaches: between 17 and 63, and above 64, where many processes stay
// live across hundreds of quantum boundaries. It covers every built-in
// adversary and the view recorder, all-equal, mixed and one-top
// priorities, quanta 8 and 12, and runs with and without a partial first
// quantum; every run is traced.
func TestHybridWideGolden(t *testing.T) {
	d := &digest{h: sha256.New()}
	rec := trace.NewRecorder(1 << 14)
	goldenHybridCases(d, rec, "wide-hybrid|", []int{17, 33, 65, 100, 129, 257}, []hybridPriorities{priNil, priMod3, priOneTop})
	if got := d.sum(); got != hybridWideGoldenSHA256 {
		t.Fatalf("wide hybrid output digest %s, want %s: hybrid output changed", got, hybridWideGoldenSHA256)
	}
}

// hybridPriorities names one way to assign priorities to n processes.
type hybridPriorities struct {
	name string
	mk   func(n int) []int
}

var (
	priNil   = hybridPriorities{"nil", func(int) []int { return nil }}
	priEqual = hybridPriorities{"equal", func(n int) []int { return make([]int, n) }}
	priMod3  = hybridPriorities{"mod3", func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i % 3
		}
		return p
	}}
	priOneTop = hybridPriorities{"one-top", func(n int) []int {
		p := make([]int, n)
		p[n-1] = 5
		return p
	}}
)

// goldenHybridCases runs every built-in adversary and a view recorder
// under each priority assignment at each size, with quanta 8 and 12,
// each with and without a partial first quantum, and hashes the traced
// outcomes.
func goldenHybridCases(d *digest, rec *trace.Recorder, prefix string, ns []int, pris []hybridPriorities) {
	advs := []struct {
		name string
		mk   func(seed uint64) hybrid.Adversary
	}{
		{"roundrobin", func(uint64) hybrid.Adversary { return &hybrid.RoundRobin{} }},
		{"random", func(seed uint64) hybrid.Adversary { return hybrid.NewRandom(seed) }},
		{"sticky", func(uint64) hybrid.Adversary { return hybrid.Sticky{} }},
		{"laggard", func(uint64) hybrid.Adversary { return hybrid.Laggard{} }},
		{"view", func(uint64) hybrid.Adversary { return &viewDigest{d: d} }},
	}
	for _, adv := range advs {
		for _, pri := range pris {
			for _, n := range ns {
				for _, quantum := range []int{8, 12} {
					for rep := 0; rep < 2; rep++ {
						seed := uint64(n)*104729 + uint64(quantum)*31 + uint64(rep)
						var used []int
						if rep == 1 {
							used = make([]int, n)
							used[int(seed%uint64(n))] = 1 + int(seed%uint64(quantum))
						}
						goldenHybridRun(d, rec, prefix+adv.name+"|"+pri.name, hybrid.Config{
							N: n, Priorities: pri.mk(n), Quantum: quantum, InitialUsed: used,
							Adversary: adv.mk(seed),
						}, seed)
					}
				}
			}
		}
	}
}

// goldenHybridRun completes cfg with fresh lean machines and memory, runs
// it traced, and hashes the outcome.
func goldenHybridRun(d *digest, rec *trace.Recorder, name string, cfg hybrid.Config, seed uint64) {
	cfg.Machines, cfg.Mem = goldenLean(goldenInputs(cfg.N, seed))
	rec.Reset()
	cfg.Trace = rec
	res, err := hybrid.Run(cfg)
	d.str(name)
	d.i64(int64(cfg.N))
	d.i64(int64(cfg.Quantum))
	d.err(err)
	if err == nil {
		d.ints(res.Decisions)
		d.i64s(res.OpCounts)
		d.i64(res.MaxOps)
		d.i64(int64(res.Preemptions))
		d.i64(res.Steps)
	}
	d.trace(rec)
}

// viewDigest is a hybrid adversary that hashes every view it is shown
// and then picks a deterministic eligible process, so the digest pins the
// scheduler's view contents as well as its decisions.
type viewDigest struct {
	d     *digest
	calls int
}

// Choose implements hybrid.Adversary.
func (a *viewDigest) Choose(v *hybrid.View) int {
	a.d.i64(int64(v.Current))
	a.d.i64(int64(v.QuantumLeft))
	a.d.i64s(v.OpCounts)
	a.d.bools(v.Decided)
	a.d.ints(v.Priorities)
	a.d.ints(v.Eligible)
	a.calls++
	return v.Eligible[(a.calls*7)%len(v.Eligible)]
}

// goldenInputs returns n mixed input bits derived from seed.
func goldenInputs(n int, seed uint64) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = int(((uint64(i)+1)*0x9E3779B97F4A7C15 + seed*0xBF58476D1CE4E5B9) >> 63)
	}
	return in
}

// goldenLean builds one lean machine per input over a fresh memory.
func goldenLean(inputs []int) ([]machine.Machine, register.Mem) {
	layout := register.Layout{}
	mem := layout.NewMem(register.DefaultLeanRounds)
	ms := make([]machine.Machine, len(inputs))
	for i, b := range inputs {
		ms[i] = core.NewLean(layout, b)
	}
	return ms, mem
}

// digest feeds a fixed little-endian encoding of run outputs to a hash.
type digest struct {
	h   hash.Hash
	buf []byte
	evs []trace.Event
}

func (d *digest) flush(limit int) {
	if len(d.buf) >= limit {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digest) sum() string {
	d.flush(0)
	return hex.EncodeToString(d.h.Sum(nil))
}

func (d *digest) i64(v int64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	d.flush(1 << 16)
}

func (d *digest) f64(v float64) { d.i64(int64(math.Float64bits(v))) }

func (d *digest) bool(v bool) {
	if v {
		d.i64(1)
	} else {
		d.i64(0)
	}
}

func (d *digest) str(s string) {
	d.i64(int64(len(s)))
	d.buf = append(d.buf, s...)
	d.flush(1 << 16)
}

func (d *digest) err(err error) {
	if err == nil {
		d.str("")
		return
	}
	d.str(err.Error())
}

func (d *digest) ints(s []int) {
	d.i64(int64(len(s)))
	for _, v := range s {
		d.i64(int64(v))
	}
}

func (d *digest) i64s(s []int64) {
	d.i64(int64(len(s)))
	for _, v := range s {
		d.i64(v)
	}
}

func (d *digest) bools(s []bool) {
	d.i64(int64(len(s)))
	for _, v := range s {
		d.bool(v)
	}
}

// trace hashes a recorder's event count and held window; a nil recorder
// hashes nothing.
func (d *digest) trace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	d.i64(rec.Total())
	d.evs = rec.AppendTo(d.evs[:0])
	for _, ev := range d.evs {
		d.f64(ev.Time)
		d.f64(ev.Delay)
		d.i64(ev.Step)
		d.i64(int64(ev.Proc))
		d.i64(int64(ev.Round))
		d.i64(int64(ev.Value))
		d.i64(int64(ev.Kind))
	}
}

func (d *digest) schedResult(r *sched.Result) {
	d.ints(r.Decisions)
	d.ints(r.DecisionRounds)
	d.i64s(r.DecisionSeqs)
	d.i64s(r.OpCounts)
	d.bools(r.Halted)
	d.i64(int64(r.FirstDecisionProc))
	d.i64(int64(r.FirstDecisionRound))
	d.f64(r.FirstDecisionTime)
	d.i64(int64(r.LastDecisionRound))
	d.i64(int64(r.MaxRound))
	d.i64(r.TotalOps)
	d.f64(r.Time)
	d.bool(r.AllHalted)
	d.bool(r.CapHit)
	d.i64(int64(r.BackupUsed))
	d.bool(r.Failed)
}
