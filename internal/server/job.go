package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/trace"
)

// jobState is a job's lifecycle position.
type jobState int32

const (
	stateQueued jobState = iota
	stateRunning
	stateDone
	stateFailed
)

// name renders the state for the wire.
func (s jobState) name() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	default:
		return "failed"
	}
}

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

// job is one admitted batch.
type job struct {
	id      string
	created time.Time
	corr    string  // X-Lean-Correlation: cross-process parent of the job's root events
	tenant  string  // X-Lean-Tenant: the admission bucket the batch counts against
	tb      *tenant // the bucket itself, for reservation returns
	specs   []*specRun

	// submit is the original request body (durable state only): it is
	// what the job's "admitted" record stores, and what a successor
	// process re-decodes to re-run interrupted work.
	submit []byte
	// logged is the ticket of the job's admit frame in the state log (0
	// when restored at boot or when state is off).
	logged uint64
	// restored, when non-nil, is a terminal snapshot loaded from the
	// state log after a restart; it is served verbatim.
	restored *JobStatus

	state atomic.Int32
	errMu sync.Mutex
	err   error

	done chan struct{} // closed when the job finishes (done or failed)
}

// totalInstances sums the batch's instance counts — the size of its
// admission reservation.
func (j *job) totalInstances() int64 {
	var t int64
	for _, sr := range j.specs {
		t += int64(sr.job.Instances)
	}
	return t
}

// newJob builds the bookkeeping for one admitted batch.
func newJob(id string, batch *Batch, shards int, corr string) *job {
	j := &job{
		id:      id,
		created: time.Now(),
		corr:    corr,
		specs:   make([]*specRun, len(batch.Jobs)),
		done:    make(chan struct{}),
	}
	for i := range batch.Jobs {
		j.specs[i] = &specRun{
			spec:     batch.Specs[i],
			job:      batch.Jobs[i],
			traceK:   batch.TraceK,
			perShard: make([]atomic.Int64, shards),
		}
	}
	return j
}

// statusName renders the current lifecycle state.
func (j *job) statusName() string { return jobState(j.state.Load()).name() }

// finished reports whether the job has reached a terminal state.
func (j *job) finished() bool {
	st := jobState(j.state.Load())
	return st == stateDone || st == stateFailed
}

// snapshot assembles the wire status from the live counters. A job
// restored from a terminal state record serves its stored snapshot
// verbatim — the record is the history.
func (j *job) snapshot() JobStatus {
	if j.restored != nil {
		return *j.restored
	}
	st := JobStatus{
		ID:      j.id,
		Status:  j.statusName(),
		Created: j.created,
		Tenant:  j.tenant,
		Specs:   make([]SpecStatus, len(j.specs)),
	}
	j.errMu.Lock()
	if j.err != nil {
		st.Error = j.err.Error()
	}
	j.errMu.Unlock()
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

// runJob executes every spec of one admitted job, in order, on its own
// arenas. It owns the job's queued-instance reservation: each finished
// instance returns its unit to the admission gate.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-s.stopCtx.Done():
		// Checkpoint-and-stop drain (durable state armed): the job never
		// started, its record is still "admitted", and the successor
		// process re-runs it — hand back the reservation and leave.
		s.release(j.tb, j.totalInstances())
		close(j.done)
		return
	}
	defer func() { <-s.sem }()

	j.state.Store(int32(stateRunning))
	s.mRunning.Inc()
	defer s.mRunning.Dec()
	s.journal.Append(obslog.KindJobStart, j.id, j.corr, obslog.Labels{})

	var failed error
	for _, sr := range j.specs {
		if err := s.runSpec(j, sr); err != nil && failed == nil {
			failed = err
		}
	}
	outcome := "ok"
	if failed != nil {
		j.errMu.Lock()
		j.err = failed
		j.errMu.Unlock()
		j.state.Store(int32(stateFailed))
		s.mFailed.Inc()
		outcome = failed.Error()
	} else {
		j.state.Store(int32(stateDone))
		s.mCompleted.Inc()
	}
	if s.state != nil {
		s.saveJobTerminal(j)
	}
	s.journal.Append(obslog.KindJobDone, j.id, j.corr, obslog.Labels{Detail: outcome})
	close(j.done)
}

// saveJobTerminal appends j's terminal frame, under s.mu and only while
// j is still the table's entry, and waits for its commit. The job is
// already in a terminal state, so a concurrent evictLocked may have
// deleted the entry and appended its evict frame; a terminal frame
// after it would resurrect the evicted ID at the next boot, with disk
// and table disagreeing. Appending under s.mu orders the two: either
// the terminal frame lands first and the evict frame follows it, or
// eviction wins and the save is skipped.
//
// A failed commit needs no handling: either the rewrite that follows it
// carries the finished job from the table, or the record stays
// "admitted" and the next boot re-runs the job, which serves the same
// deterministic outcome.
func (s *Server) saveJobTerminal(j *job) {
	rec, err := encodeRecord(j.record())
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.jobs[j.id] != j {
		s.mu.Unlock()
		return
	}
	t, err := s.state.append(j.id, rec, false)
	s.mu.Unlock()
	if err == nil {
		s.state.wait(t) //nolint:errcheck // see above
	}
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
