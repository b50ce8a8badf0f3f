package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunTextReport(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-instances", "60", "-shards", "2", "-workers", "2", "-n", "4", "-seed", "9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"leanarena: backend=sched", "decided:", "throughput:", "shard load:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunJSONReplay is the end-to-end determinism check: two full runs
// with the same seed must emit byte-identical JSON reports.
func TestRunJSONReplay(t *testing.T) {
	args := []string{"-instances", "120", "-shards", "3", "-workers", "2", "-n", "4", "-seed", "17", "-json"}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("same seed produced different JSON reports:\n%s\nvs\n%s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), `"checksum"`) {
		t.Errorf("JSON report missing checksum:\n%s", first.String())
	}
}

// TestRunJSONDecisionsIndependentOfShards is the -shards regression
// test: the decision fields of the JSON report depend on the seed and the
// workload, never on the pool shape. Only the echoed shards, workers, and
// per-shard split may differ.
func TestRunJSONDecisionsIndependentOfShards(t *testing.T) {
	type decisions struct {
		Decided0       int64   `json:"decided0"`
		Decided1       int64   `json:"decided1"`
		TotalOps       int64   `json:"total_ops"`
		MeanFirstRound float64 `json:"mean_first_round"`
		MaxLastRound   int     `json:"max_last_round"`
		Checksum       string  `json:"checksum"`
	}
	var golden decisions
	for _, shards := range []string{"1", "2", "3"} {
		var out bytes.Buffer
		if err := run([]string{"-instances", "500", "-n", "8", "-seed", "1", "-shards", shards, "-json"}, &out); err != nil {
			t.Fatal(err)
		}
		var got decisions
		if err := json.Unmarshal(out.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if shards == "1" {
			golden = got
		} else if got != golden {
			t.Fatalf("-shards %s decided differently from -shards 1:\n%+v\n%+v", shards, got, golden)
		}
	}
}

// TestRunAdversaryFlag drives the -adversary flag end to end: the JSON
// report carries the canonical label, replays byte-identically, and
// differs from the zero-schedule run's decisions; pairings the backend
// cannot run are rejected up front.
func TestRunAdversaryFlag(t *testing.T) {
	base := []string{"-instances", "120", "-shards", "3", "-workers", "2", "-n", "4", "-seed", "17", "-json"}
	var zero, first, second bytes.Buffer
	if err := run(base, &zero); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-adversary", "anti-leader:m=2"}, base...)
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("adversarial run is not replayable:\n%s\nvs\n%s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), `"adversary": "antileader:m=2"`) {
		t.Errorf("JSON report missing canonical adversary label:\n%s", first.String())
	}
	if bytes.Equal(zero.Bytes(), first.Bytes()) {
		t.Error("antileader:m=2 report equals the zero-schedule report; the schedule never armed")
	}

	// The hybrid backend runs the schedule's quantum/priority face.
	var out bytes.Buffer
	if err := run([]string{"-instances", "20", "-shards", "2", "-n", "4",
		"-backend", "hybrid", "-adversary", "antileader"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "adversary=antileader:m=1") {
		t.Errorf("hybrid adversarial header:\n%s", out.String())
	}

	// msgnet is outside the axis; halfsplit has no hybrid face.
	for _, args := range [][]string{
		{"-backend", "msgnet", "-adversary", "antileader"},
		{"-backend", "hybrid", "-adversary", "halfsplit"},
		{"-adversary", "bogus"},
		{"-adversary", "antileader:m="},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunBackendFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-instances", "20", "-shards", "2", "-n", "4", "-backend", "hybrid"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backend=hybrid") {
		t.Errorf("output does not name the hybrid backend:\n%s", out.String())
	}
	if err := run([]string{"-backend", "bogus"}, &out); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sched", "hybrid", "msgnet", "exponential"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadInstances(t *testing.T) {
	if err := run([]string{"-instances", "0"}, &bytes.Buffer{}); err == nil {
		t.Error("zero instances accepted")
	}
}

// TestRunRejectsDistForNoiseFreeBackend: hybrid declares noise can't
// affect it, so an explicit -dist must error instead of silently doing
// nothing (the default distribution is still fine — it's configuration,
// not a claim of effect).
func TestRunRejectsDistForNoiseFreeBackend(t *testing.T) {
	if err := run([]string{"-backend", "hybrid", "-dist", "uniform", "-instances", "1"}, &bytes.Buffer{}); err == nil {
		t.Error("explicit -dist with a noise-free backend accepted")
	}
	var out bytes.Buffer
	if err := run([]string{"-backend", "hybrid", "-instances", "10"}, &out); err != nil {
		t.Errorf("default dist with hybrid backend: %v", err)
	}
}
