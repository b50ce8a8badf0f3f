package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsMatchBenchmarkFile keeps the workload set and each
// workload's reason identical to BENCHMARK.json.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestWorkloads runs every workload with a one-second window, untraced
// and traced, with one set-up and shrunken replays. Each run must print
// exactly the metrics BENCHMARK.json names, with their units, and fail
// nothing; the traced run's span file must parse, with every child
// inside its parent and no negative self time.
func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				want := bf.EndToEnd
				spansPath := ""
				if traced {
					want = bf.PerLayer
					spansPath = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				var log bytes.Buffer
				res, err := run(config{
					w: w, seed: 1, window: time.Second, traced: traced, spansPath: spansPath,
					workDir: t.TempDir(), setups: 1, scale: 0.02, log: &log,
				})
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, log.String())
				}
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d\n%s",
						traced, res.Correct, res.Attempted, res.Failed, log.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s not printed", traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s has unit %q, BENCHMARK.json says %q", traced, m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					var names []string
					for name := range res.Metrics {
						names = append(names, name)
					}
					t.Errorf("traced=%v: printed %d metrics, BENCHMARK.json lists %d: %s",
						traced, len(res.Metrics), len(want), strings.Join(names, ", "))
				}
				if traced {
					checkSpanFile(t, spansPath)
				}
			}
		})
	}
}

// readSpans parses a span file written by write.
func readSpans(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := readSpans(f)
	if err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("span file is empty")
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, name := range []string{"gen.lag", "client.submit", "server.slot_wait", "server.run", "notify", "client.fetch", "arena.submit_all", "engine.run"} {
		if !names[name] {
			t.Errorf("no %s span", name)
		}
	}
	_, errs := selfTimes(spans)
	for _, err := range errs {
		t.Error(err)
	}
}

// TestFlags checks that bad invocations exit 2 without a result line.
func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "jobs-mixed", "--trace", "2"},
		{"--workload", "jobs-mixed", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cmdMain(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
