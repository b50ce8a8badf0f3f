package server

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
)

// The JSON wire contract. Each response body has one definition: here,
// or in the package that produces it (campaign.Report, trace.Instance,
// obslog.Labels). The root package's Client decodes into these types
// through aliases, so a field added here reaches the client with no
// second edit. Only the request specs and the journal event and page
// keep root-side structs, and a root test round-trips each of them
// against its counterpart.

// submitRequest is the POST /v1/jobs body. Trace, when positive, arms
// flight-recorder capture on every spec's arena: the K most interesting
// instances per shard (violations first, then deepest rounds) become
// retrievable at GET /v1/jobs/{id}/trace once the job finishes.
type submitRequest struct {
	Jobs  []engine.JobSpec `json:"jobs"`
	Trace int              `json:"trace,omitempty"`
}

// MaxTraceK caps the per-shard capture budget a client may request; full
// event rings for every capture are held in memory until the job is
// evicted, so the cap bounds the server's exposure.
const MaxTraceK = 64

// submitResponse is the 202 body.
type submitResponse struct {
	ID              string `json:"id"`
	Status          string `json:"status"`
	Location        string `json:"location"`
	QueuedInstances int64  `json:"queuedInstances"`
}

// JobStatus is the GET /v1/jobs/{id} body and the SSE event payload.
type JobStatus struct {
	ID      string       `json:"id"`
	Status  string       `json:"status"` // queued | running | done | failed
	Created time.Time    `json:"created"`
	Tenant  string       `json:"tenant,omitempty"`
	Specs   []SpecStatus `json:"specs"`
	Error   string       `json:"error,omitempty"`
}

// Finished reports whether the job reached a terminal state.
func (s *JobStatus) Finished() bool { return terminal(s.Status) }

// terminal reports whether a wire status names a terminal state.
func terminal(status string) bool {
	return status == stateDone.name() || status == stateFailed.name()
}

// SpecStatus is one spec's live progress and, once finished, result.
type SpecStatus struct {
	Spec      engine.JobSpec `json:"spec"`
	Instances int            `json:"instances"`
	Done      int64          `json:"done"`
	PerShard  []int64        `json:"perShard"`
	Result    *SpecResult    `json:"result,omitempty"`
}

// SpecResult aggregates one executed spec. Every field except the
// wall-clock ones (ElapsedMS, Throughput) is a pure function of the
// spec — byte-identical across replays and pool shapes. The spec runs
// exactly the instances of the one-cell campaign with the same model,
// dist, adversary, n, seed, and reps = instances, so cmd/leansweep
// reports the same decisions, ops, errors, and maxLastRound (MaxRound).
type SpecResult struct {
	Model          string  `json:"model"`
	Variant        string  `json:"variant"`
	Dist           string  `json:"dist"`
	Adversary      string  `json:"adversary"`
	N              int     `json:"n"`
	Seed           uint64  `json:"seed"`
	Instances      int     `json:"instances"`
	Decided0       int64   `json:"decided0"`
	Decided1       int64   `json:"decided1"`
	Errors         int64   `json:"errors"`
	Ops            int64   `json:"ops"`
	RoundSum       int64   `json:"roundSum"`
	MeanFirstRound float64 `json:"meanFirstRound"`
	MaxRound       int     `json:"maxRound"`
	ElapsedMS      float64 `json:"elapsedMs"`
	Throughput     float64 `json:"throughput"`
}

// Catalog is the GET /v1/models body: what the registries accept in a
// job spec.
type Catalog struct {
	DefaultModel string        `json:"defaultModel"`
	Models       []ModelInfo   `json:"models"`
	Variants     []VariantInfo `json:"variants"`
	Dists        []string      `json:"dists"`
}

// ModelInfo describes one registered execution model.
type ModelInfo struct {
	Name  string `json:"name"`
	Brief string `json:"brief"`
}

// VariantInfo describes one registered algorithm variant; only servable
// variants are accepted in job specs.
type VariantInfo struct {
	Name     string `json:"name"`
	Servable bool   `json:"servable"`
}

// AdversaryCatalog is the GET /v1/adversaries body: the registered
// adversarial schedules, their parameter schemas, and which execution
// models can run each.
type AdversaryCatalog struct {
	DefaultAdversary string          `json:"defaultAdversary"`
	Adversaries      []AdversaryInfo `json:"adversaries"`
}

// AdversaryInfo describes one registered adversarial schedule: its
// parameter schema (specs are written "name:param=value:param=value")
// and the execution models that can run it.
type AdversaryInfo struct {
	Name      string           `json:"name"`
	Canonical string           `json:"canonical"`
	Brief     string           `json:"brief"`
	Params    []AdversaryParam `json:"params,omitempty"`
	Models    []string         `json:"models"`
}

// AdversaryParam is one named parameter of an adversarial schedule;
// Integer parameters only accept whole values.
type AdversaryParam struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Integer bool    `json:"integer,omitempty"`
}

// JobTrace is the GET /v1/jobs/{id}/trace body: the flight-recorder
// captures of a traced job, one block per spec in submission order.
// Specs is empty until the job finishes (captures are selected when each
// spec's arena closes), and every Trace block is empty when the job was
// submitted without the trace option. A capture of rep from+k of a spec
// is named "model=…,dist=…,adv=…,n=…,seed=…,from=<from>,rep=<k>", where
// from is the first rep of the cell that ran it.
type JobTrace struct {
	ID     string      `json:"id"`
	Status string      `json:"status"`
	Specs  []SpecTrace `json:"specs"`
}

// SpecTrace is one spec's captures, most interesting first.
type SpecTrace struct {
	Spec  engine.JobSpec   `json:"spec"`
	Trace []trace.Instance `json:"trace,omitempty"`
}

// Health is the GET /healthz body. Jobs and Campaigns count live
// (queued or running) work only; Version and Revision identify the
// running build (internal/buildinfo). QueueDepth counts jobs plus
// campaigns admitted but still waiting for an execution slot;
// Goroutines and GCPauseP99Ms are process-level runtime vitals. Node is
// the journal node identity stamped on this process's events, and
// JournalDropped counts events the persistence follower lost to ring
// wraps — nonzero means the on-disk journal has sequence gaps.
type Health struct {
	Status          string  `json:"status"`
	Version         string  `json:"version"`
	Revision        string  `json:"revision"`
	Node            string  `json:"node,omitempty"`
	QueuedInstances int64   `json:"queuedInstances"`
	Jobs            int     `json:"jobs"`
	Campaigns       int     `json:"campaigns"`
	QueueDepth      int     `json:"queueDepth"`
	Tenants         int     `json:"tenants,omitempty"`
	Goroutines      int     `json:"goroutines"`
	GCPauseP99Ms    float64 `json:"gcPauseP99Ms"`
	JournalDropped  uint64  `json:"journalDropped,omitempty"`
}

// distNames lists the registered distribution names.
func distNames() []string { return dist.Names() }

// Batch is a decoded, fully validated POST /v1/jobs body: the raw specs
// side by side with their resolved jobs, plus the requested per-shard
// trace budget (0 = tracing off).
type Batch struct {
	Specs  []engine.JobSpec
	Jobs   []engine.Job
	TraceK int
}

// DecodeSubmit parses and validates a POST /v1/jobs body. Every failure
// is a client error (HTTP 400): malformed JSON, unknown fields, trailing
// garbage, an empty or oversized batch, and any spec the engine
// registries refuse. It never panics on hostile input — the root
// package's FuzzJobSpecDecode holds it to that.
func DecodeSubmit(r io.Reader, maxBatch int) (*Batch, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("server: bad request body: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("server: trailing data after request body")
	}
	if len(req.Jobs) == 0 {
		return nil, fmt.Errorf("server: batch is empty: provide at least one job spec")
	}
	if maxBatch > 0 && len(req.Jobs) > maxBatch {
		return nil, fmt.Errorf("server: batch has %d specs, maximum is %d", len(req.Jobs), maxBatch)
	}
	if req.Trace < 0 || req.Trace > MaxTraceK {
		return nil, fmt.Errorf("server: trace must be in [0, %d], got %d", MaxTraceK, req.Trace)
	}
	b := &Batch{Specs: req.Jobs, Jobs: make([]engine.Job, len(req.Jobs)), TraceK: req.Trace}
	for i, spec := range req.Jobs {
		job, err := spec.Resolve()
		if err != nil {
			return nil, fmt.Errorf("server: job spec %d: %v", i, err)
		}
		b.Jobs[i] = job
	}
	return b, nil
}
