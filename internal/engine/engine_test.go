package engine_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/msgnet"
)

func specFor(n int, i int) engine.Spec {
	inputs := make([]int, n)
	for j := range inputs {
		inputs[j] = (i + j) % 2
	}
	return engine.Spec{
		Key:    fmt.Sprintf("spec-%d", i),
		N:      n,
		Inputs: inputs,
		Noise:  dist.Exponential{MeanVal: 1},
		Seed:   uint64(1000 + i),
	}
}

func TestRegistryResolvesAllModels(t *testing.T) {
	// Subset, not equality: the registry is open for extension (see the
	// README's "adding a new execution model" guide), so a registered
	// fourth model must not fail this test.
	want := []string{"hybrid", "msgnet", "sched"}
	names := map[string]bool{}
	for _, n := range engine.Names() {
		names[n] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Fatalf("Names() = %v, missing %q", engine.Names(), n)
		}
	}
	for _, name := range want {
		m, err := engine.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, m.Name())
		}
	}
	// The empty name selects the default model.
	m, err := engine.ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != engine.DefaultModel {
		t.Errorf("ByName(\"\") = %q, want %q", m.Name(), engine.DefaultModel)
	}
	if _, err := engine.ByName("bogus"); err == nil {
		t.Error("ByName accepted an unknown model")
	}
	for _, info := range engine.List() {
		if info.Brief == "" {
			t.Errorf("model %q has no description", info.Name)
		}
	}
}

// TestModelsRejectMalformedSpecs: the unified contract — every model
// must reject a spec whose Inputs length disagrees with N (or N <= 0)
// instead of silently running at the wrong size.
func TestModelsRejectMalformedSpecs(t *testing.T) {
	for _, name := range engine.Names() {
		m, err := engine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []engine.Spec{
			{N: 8, Inputs: make([]int, 4), Noise: dist.Exponential{MeanVal: 1}},
			{N: 0, Noise: dist.Exponential{MeanVal: 1}},
			{N: -3, Inputs: make([]int, 2), Noise: dist.Exponential{MeanVal: 1}},
		} {
			if _, err := m.Run(spec, nil); err == nil {
				t.Errorf("%s accepted malformed spec N=%d len(Inputs)=%d", name, spec.N, len(spec.Inputs))
			}
		}
	}
}

// TestRegisterRejectsNameMismatch: consumers dispatch on Model.Name(), so
// a constructor whose Name() disagrees with its registered name must be
// refused at registration time.
func TestRegisterRejectsNameMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Name() registration did not panic")
		}
	}()
	engine.Register("misnamed-model", "test", func() engine.Model {
		return &engine.Sched{} // Name() returns "sched", not "misnamed-model"
	})
}

// TestSessionDoesNotAffectOutcomes is the pooling contract: a model run
// with a reused Session must be bit-identical to one run with none, for
// every model, across many specs served back to back on one session.
func TestSessionDoesNotAffectOutcomes(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			m, err := engine.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sess := engine.NewSession()
			for i := 0; i < 30; i++ {
				spec := specFor(4, i)
				pooled, err := m.Run(spec, sess)
				if err != nil {
					t.Fatalf("pooled run %d: %v", i, err)
				}
				fresh, err := m.Run(spec, nil)
				if err != nil {
					t.Fatalf("fresh run %d: %v", i, err)
				}
				if pooled != fresh {
					t.Fatalf("run %d diverged: pooled %+v vs fresh %+v", i, pooled, fresh)
				}
			}
		})
	}
}

// TestSessionSurvivesSizeChanges reuses one session across growing and
// shrinking instance sizes, for every model: buffers must resize without
// leaking state, and every size must run, pooled and fresh.
func TestSessionSurvivesSizeChanges(t *testing.T) {
	for _, name := range engine.Names() {
		m, err := engine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sess := engine.NewSession()
		for i, n := range []int{2, 16, 4, 64, 1, 8, 3, 5, 17} {
			spec := specFor(n, i)
			pooled, err := m.Run(spec, sess)
			fresh, ferr := m.Run(spec, nil)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if ferr != nil {
				t.Fatalf("%s n=%d fresh: %v", name, n, ferr)
			}
			if pooled != fresh {
				t.Fatalf("%s n=%d diverged: %+v vs %+v", name, n, pooled, fresh)
			}
		}
	}
}

// badAfter is a noise distribution whose first k samples are
// exponential and every later one is v, so a run fails mid-flight: a
// msgnet run with messages still in flight, a sched run with completions
// still queued.
type badAfter struct {
	k *int
	v float64
}

func (d badAfter) Sample(rng *rand.Rand) float64 {
	if *d.k <= 0 {
		return d.v
	}
	*d.k--
	return rng.ExpFloat64()
}

func (d badAfter) String() string { return fmt.Sprintf("bad-after(%g)", d.v) }

// TestBadNoiseLeavesSessionClean: a run that draws a negative msgnet
// delivery delay or a NaN sched completion time mid-flight fails with a
// config error, and the same pooled session then runs valid specs
// bit-identically to a fresh one.
func TestBadNoiseLeavesSessionClean(t *testing.T) {
	for _, tc := range []struct {
		model string
		ks    []int // samples drawn before the bad one
		v     float64
		is    func(error) bool
	}{
		{"msgnet", []int{0, 40, 400}, -1, func(err error) bool { return errors.Is(err, msgnet.ErrBadConfig) }},
		{"msgnet", []int{0, 40, 400}, math.NaN(), func(err error) bool { return errors.Is(err, msgnet.ErrBadConfig) }},
		{"sched", []int{0, 10, 40}, math.NaN(), func(err error) bool {
			return err != nil && strings.HasPrefix(err.Error(), "sched: invalid config: NaN completion time")
		}},
	} {
		m, err := engine.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		sess := engine.NewSession()
		for i, k := range tc.ks {
			bad := specFor(5, i)
			bad.Noise = badAfter{k: &k, v: tc.v}
			if _, err := m.Run(bad, sess); !tc.is(err) {
				t.Fatalf("%s: noise %g after %d samples: error %v, want a config error", tc.model, tc.v, k, err)
			}
			for _, n := range []int{5, 8} {
				spec := specFor(n, 10+i)
				pooled, err := m.Run(spec, sess)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := m.Run(spec, engine.NewSession())
				if err != nil {
					t.Fatal(err)
				}
				if pooled != fresh {
					t.Fatalf("%s: after a failed run, n=%d pooled %+v differs from fresh %+v", tc.model, n, pooled, fresh)
				}
			}
		}
	}
}

func TestModelsAreSpecPure(t *testing.T) {
	// The same spec must produce the same result on distinct sessions.
	for _, name := range engine.Names() {
		m, err := engine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := specFor(4, 7)
		a, err := m.Run(spec, engine.NewSession())
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Run(spec, engine.NewSession())
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: same spec, different results: %+v vs %+v", name, a, b)
		}
	}
}

func TestVariantRegistry(t *testing.T) {
	// Subset, not equality: externally registered variants must not fail
	// this test.
	names := map[string]bool{}
	for _, n := range engine.VariantNames() {
		names[n] = true
	}
	for _, n := range []string{"backup", "combined", "lean", "lean-optimized"} {
		if !names[n] {
			t.Fatalf("VariantNames() = %v, missing %q", engine.VariantNames(), n)
		}
	}
	v, err := engine.VariantByName("lean")
	if err != nil {
		t.Fatal(err)
	}
	m := v.New(engine.VariantSpec{Input: 1})
	if m == nil {
		t.Fatal("lean variant constructed nil machine")
	}
	if _, err := engine.VariantByName("nope"); err == nil {
		t.Error("VariantByName accepted an unknown variant")
	}
}
