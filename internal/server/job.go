package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/trace"
)

// specRun is one spec's execution state inside a job. Progress fields
// are atomics written from arena workers (by the cells' progress sink)
// and read by status snapshots and the SSE stream without locks.
type specRun struct {
	spec   engine.JobSpec
	job    engine.Job
	traceK int // per-shard flight-recorder budget, 0 = off

	done     atomic.Int64
	perShard []atomic.Int64

	mu     sync.Mutex
	result *SpecResult
	traces []trace.Instance
}

// job is one admitted batch of job specs: the job-specific part of its
// unit.
type job struct {
	unit
	specs []*specRun

	// submit is the original request body (durable state only): it is
	// what the job's "admitted" record stores, and what a successor
	// process re-decodes to re-run interrupted work.
	submit []byte
	// restored, when non-nil, is a terminal snapshot loaded from the
	// state log after a restart; it is served verbatim.
	restored *JobStatus
}

// newJob builds the bookkeeping for one decoded batch; the batch's
// instance count is the size of its admission reservation.
func newJob(batch *Batch, shards int) *job {
	j := &job{specs: make([]*specRun, len(batch.Jobs))}
	for i := range batch.Jobs {
		j.specs[i] = &specRun{
			spec:     batch.Specs[i],
			job:      batch.Jobs[i],
			traceK:   batch.TraceK,
			perShard: make([]atomic.Int64, shards),
		}
		j.instances += int64(batch.Jobs[i].Instances)
	}
	return j
}

// decodeJob reads and resolves a POST /v1/jobs body. The body is
// buffered before decoding: with durable state armed it becomes the
// record's stored submit, re-decoded through the same decoder if a
// crash forces a re-run.
func decodeJob(s *Server, w http.ResponseWriter, r *http.Request) (work, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("server: bad request body: %v", err)
	}
	batch, err := DecodeSubmit(bytes.NewReader(body), s.cfg.MaxBatch)
	if err != nil {
		return nil, err
	}
	j := newJob(batch, s.cfg.Shards)
	if s.state != nil {
		j.submit = body
	}
	return j, nil
}

// restoreJob rebuilds a job from its folded state record.
func restoreJob(s *Server, rec *stateRecord) (work, error) {
	if rec.Status != recAdmitted {
		if rec.Job == nil {
			return nil, fmt.Errorf("server: state record %s has no final snapshot", rec.ID)
		}
		return &job{restored: rec.Job}, nil
	}
	// The stored submit re-decodes through the admission path's own
	// decoder; results are a pure function of the spec, so the re-run
	// serves what the interrupted run would have.
	batch, err := DecodeSubmit(bytes.NewReader(rec.Submit), 0)
	if err != nil {
		return nil, fmt.Errorf("server: state record %s: %v", rec.ID, err)
	}
	j := newJob(batch, s.cfg.Shards)
	j.submit = rec.Submit
	return j, nil
}

// labels puts a single-spec batch's (the common case) workload axes on
// its admit event; multi-spec batches carry them per spec via metrics.
func (j *job) labels() obslog.Labels {
	if len(j.specs) != 1 {
		return obslog.Labels{}
	}
	jb := j.specs[0].job
	return obslog.Labels{Model: jb.ModelName, Dist: jb.DistName, Adversary: jb.AdvName, N: jb.N}
}

func (j *job) status() any { return j.snapshot() }

// snapshot assembles the wire status from the live counters. A job
// restored from a terminal state record serves its stored snapshot
// verbatim — the record is the history.
func (j *job) snapshot() *JobStatus {
	if j.restored != nil {
		return j.restored
	}
	st := &JobStatus{
		ID:      j.id,
		Status:  j.statusName(),
		Created: j.created,
		Tenant:  j.tenant,
		Specs:   make([]SpecStatus, len(j.specs)),
		Error:   j.errorText(),
	}
	for i, sr := range j.specs {
		ss := SpecStatus{
			Spec:      sr.spec,
			Instances: sr.job.Instances,
			Done:      sr.done.Load(),
			PerShard:  make([]int64, len(sr.perShard)),
		}
		for s := range sr.perShard {
			ss.PerShard[s] = sr.perShard[s].Load()
		}
		sr.mu.Lock()
		if sr.result != nil {
			r := *sr.result
			ss.Result = &r
		}
		sr.mu.Unlock()
		st.Specs[i] = ss
	}
	return st
}

func (j *job) body(rec *stateRecord) {
	if rec.Status == recAdmitted {
		rec.Submit = j.submit
		return
	}
	rec.Job = j.snapshot()
}

// run executes every spec of the job, in order, on its own arenas; each
// finished instance returns its unit to the admission gate.
func (j *job) run(s *Server) error {
	s.journal.Append(obslog.KindJobStart, j.id, j.corr, obslog.Labels{})
	var failed error
	for _, sr := range j.specs {
		if err := s.runSpec(j, sr); err != nil && failed == nil {
			failed = err
		}
	}
	return failed
}

// runSpec serves one spec on a fresh arena as the one-cell campaign with
// the same model, dist, adversary, n, seed, and reps = instances: rep r
// runs with seed campaign.InstanceSeed(seed, n, r) on the half-and-half
// inputs. The reps are split into min(instances, shards×workers) cells
// over contiguous ranges so every worker takes a share. The split
// follows the pool shape, but the result cannot: every deterministic
// SpecResult field is an integer sum or max over the reps, read from the
// arena's shard stats once the cells drain.
func (s *Server) runSpec(j *job, sr *specRun) error {
	jb := sr.job
	var tc *arena.TraceConfig
	if sr.traceK > 0 {
		tc = &arena.TraceConfig{PerShard: sr.traceK}
	}
	a, err := arena.New(arena.Config{
		Trace:   tc,
		Shards:  s.cfg.Shards,
		Workers: s.cfg.Workers,
		Metrics: arena.NewMetrics(s.reg, "model", jb.ModelName, "dist", jb.DistName, "adversary", jb.AdvName),
		Journal: s.journal,
		Owner:   j.id,
	})
	if err != nil {
		s.release(j.tb, int64(jb.Instances))
		return fmt.Errorf("server: job spec (model=%s): %v", jb.ModelName, err)
	}

	// Cell keys name trace captures ("<key>,rep=<rep>"), so they come from
	// the spec and the rep range alone: identical jobs capture identically.
	key := fmt.Sprintf("model=%s,dist=%s,adv=%s,n=%d,seed=%d", jb.ModelName, jb.DistName, jb.AdvName, jb.N, jb.Seed)
	chunks := min(jb.Instances, s.cfg.Shards*s.cfg.Workers)
	sink := progressSink{s: s, j: j, sr: sr}
	start := time.Now()
	// A started spec always runs to completion: Close drains jobs, it
	// never cancels them.
	err = a.RunCells(context.Background(), chunks, func(c int) arena.CellRequest {
		lo, hi := c*jb.Instances/chunks, (c+1)*jb.Instances/chunks
		return arena.CellRequest{
			Model:     jb.Model,
			Key:       fmt.Sprintf("%s,from=%d", key, lo),
			N:         jb.N,
			Noise:     jb.Noise,
			Adversary: jb.Adversary,
			Reps:      hi - lo,
			Seed:      func(rep int) uint64 { return campaign.InstanceSeed(jb.Seed, jb.N, lo+rep) },
			Sink:      sink,
		}
	}, func(int, arena.CellResult) {})
	elapsed := time.Since(start)
	if err != nil {
		// Unreachable while the server owns the arena: RunCells has
		// drained every submitted cell, so return the never-run
		// remainder's reservation and surface the fault.
		s.release(j.tb, int64(jb.Instances)-sr.done.Load())
		a.Close()
		return fmt.Errorf("server: submit failed mid-job: %v", err)
	}
	if err := a.Close(); err != nil {
		return err
	}

	st := a.Stats().Totals
	res := SpecResult{
		Model:     jb.ModelName,
		Variant:   jb.VariantName,
		Dist:      jb.DistName,
		Adversary: jb.AdvName,
		N:         jb.N,
		Seed:      jb.Seed,
		Instances: jb.Instances,
		Decided0:  st.Decided[0],
		Decided1:  st.Decided[1],
		Errors:    st.Errors,
		Ops:       st.Ops,
		RoundSum:  st.RoundSum,
		MaxRound:  st.MaxRound,
	}
	if decided := res.Decided0 + res.Decided1; decided > 0 {
		res.MeanFirstRound = float64(res.RoundSum) / float64(decided)
		res.Throughput = float64(decided) / elapsed.Seconds()
	}
	res.ElapsedMS = float64(elapsed) / float64(time.Millisecond)

	sr.mu.Lock()
	sr.result = &res
	if tc != nil {
		sr.traces = a.Traces()
	}
	sr.mu.Unlock()
	return nil
}

// progressSink publishes a job spec's progress from the serving worker,
// once per rep: the spec's done count, its per-shard count, and the
// rep's admission unit. The deterministic counters need no fold here —
// the arena's shard stats already keep them.
type progressSink struct {
	s  *Server
	j  *job
	sr *specRun
}

func (p progressSink) Add(_ int, r arena.Result) {
	p.sr.perShard[r.Shard].Add(1)
	p.sr.done.Add(1)
	p.s.complete(p.j.tb, 1)
}

// traceSnapshot assembles the GET /v1/jobs/{id}/trace body. Captures are
// stored once per spec when its arena closes; an unfinished spec simply
// contributes an empty block.
func (j *job) traceSnapshot() JobTrace {
	jt := JobTrace{
		ID:     j.id,
		Status: j.statusName(),
		Specs:  make([]SpecTrace, len(j.specs)),
	}
	for i, sr := range j.specs {
		st := SpecTrace{Spec: sr.spec}
		sr.mu.Lock()
		st.Trace = sr.traces
		sr.mu.Unlock()
		jt.Specs[i] = st
	}
	return jt
}
