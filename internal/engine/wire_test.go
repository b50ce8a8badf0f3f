package engine

import (
	"strings"
	"testing"
)

func TestJobSpecResolveDefaults(t *testing.T) {
	job, err := JobSpec{Instances: 10}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.ModelName != DefaultModel {
		t.Errorf("ModelName = %q, want %q", job.ModelName, DefaultModel)
	}
	if job.VariantName != ServableVariant {
		t.Errorf("VariantName = %q, want %q", job.VariantName, ServableVariant)
	}
	if job.DistName != "exponential" {
		t.Errorf("DistName = %q, want exponential", job.DistName)
	}
	if job.N != DefaultWireN {
		t.Errorf("N = %d, want %d", job.N, DefaultWireN)
	}
	if job.Model == nil || job.Noise == nil {
		t.Error("resolved model/noise must be non-nil")
	}
}

func TestJobSpecResolveRejects(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string // substring of the error
	}{
		{"unknown model", JobSpec{Model: "quantum", Instances: 1}, "unknown"},
		{"unknown variant", JobSpec{Variant: "nope", Instances: 1}, "unknown"},
		{"unservable variant", JobSpec{Variant: "combined", Instances: 1}, "not servable"},
		{"unknown dist", JobSpec{Dist: "zipf", Instances: 1}, "unknown"},
		{"dist on noise-free model", JobSpec{Model: "hybrid", Dist: "uniform", Instances: 1}, "no effect"},
		{"zero instances", JobSpec{}, "instances"},
		{"negative instances", JobSpec{Instances: -4}, "instances"},
		{"too many instances", JobSpec{Instances: MaxWireInstances + 1}, "instances"},
		{"negative n", JobSpec{N: -1, Instances: 1}, "n must be"},
		{"huge n", JobSpec{N: MaxWireN + 1, Instances: 1}, "n must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Resolve()
			if err == nil {
				t.Fatalf("Resolve(%+v) succeeded, want error containing %q", tc.spec, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestJobSpecResolveCanonicalizes(t *testing.T) {
	job, err := JobSpec{Model: " MsgNet ", Variant: "LEAN", Dist: "TwoPoint", Instances: 5, N: 4, Seed: 9}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.ModelName != "msgnet" || job.VariantName != "lean" || job.DistName != "two-point" {
		t.Fatalf("canonical names = %q/%q/%q", job.ModelName, job.VariantName, job.DistName)
	}
	if job.N != 4 || job.Seed != 9 || job.Instances != 5 {
		t.Fatalf("passthrough fields wrong: %+v", job)
	}
	if got, want := job.Key(), "model=msgnet,dist=two-point,adv=none,n=4,seed=9"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

func TestJobSpecResolveNoiseFreeDist(t *testing.T) {
	// A noise-free model resolves with DistName "none": no distribution
	// can affect it, so none is attributed — and the echoed name must
	// round-trip through Resolve.
	job, err := JobSpec{Model: "hybrid", Instances: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.DistName != "none" || job.Noise != nil {
		t.Fatalf("DistName = %q, Noise = %v", job.DistName, job.Noise)
	}
	if _, err := (JobSpec{Model: "hybrid", Dist: "none", Instances: 1}).Resolve(); err != nil {
		t.Fatalf("echoed dist \"none\" did not round-trip: %v", err)
	}
	if _, err := (JobSpec{Model: "sched", Dist: "none", Instances: 1}).Resolve(); err == nil {
		t.Fatal("dist \"none\" accepted for a noisy model")
	}
}
