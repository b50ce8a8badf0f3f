package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/campaign"
	"leanconsensus/internal/obslog"
)

// CampaignStatus is the GET /v1/campaigns/{id} body and the campaign SSE
// event payload. Report appears once the campaign is done; everything in
// it is deterministic, so two services running the same spec serve
// byte-identical reports.
type CampaignStatus struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"` // queued | running | done | failed
	Created  time.Time `json:"created"`
	Name     string    `json:"name,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
	SpecHash string    `json:"specHash"`

	CellsDone      int   `json:"cellsDone"`
	CellsTotal     int   `json:"cellsTotal"`
	InstancesDone  int64 `json:"instancesDone"`
	InstancesTotal int64 `json:"instancesTotal"`

	Error  string           `json:"error,omitempty"`
	Report *campaign.Report `json:"report,omitempty"`
}

// Finished reports whether the campaign reached a terminal state.
func (s *CampaignStatus) Finished() bool { return terminal(s.Status) }

// campaignRun is one admitted campaign's execution state. Progress
// fields are atomics written by the runner's serial callbacks and read
// by status snapshots and the SSE stream without locks.
type campaignRun struct {
	id      string
	created time.Time
	corr    string  // X-Lean-Correlation: cross-process parent of the campaign's root events
	tenant  string  // X-Lean-Tenant: the admission bucket the grid counts against
	tb      *tenant // the bucket itself, for reservation returns
	camp    *campaign.Campaign

	// restored, when non-nil, is a terminal snapshot loaded from the
	// state log after a restart; it is served verbatim (camp is nil).
	restored *CampaignStatus
	// logged is the ticket of the campaign's admit frame in the state
	// log (0 when restored at boot or when state is off).
	logged uint64

	cellsDone     atomic.Int64
	instancesDone atomic.Int64

	state atomic.Int32 // jobState: the campaign lifecycle reuses it
	errMu sync.Mutex
	err   error

	repMu  sync.Mutex
	report *campaign.Report

	done chan struct{} // closed when the campaign finishes
}

// finished reports whether the campaign reached a terminal state.
func (cr *campaignRun) finished() bool {
	st := jobState(cr.state.Load())
	return st == stateDone || st == stateFailed
}

// snapshot assembles the wire status from the live counters. A
// campaign restored from a terminal state record serves its stored
// snapshot verbatim.
func (cr *campaignRun) snapshot() CampaignStatus {
	if cr.restored != nil {
		return *cr.restored
	}
	st := CampaignStatus{
		ID:             cr.id,
		Status:         jobState(cr.state.Load()).name(),
		Created:        cr.created,
		Name:           cr.camp.Spec.Name,
		Tenant:         cr.tenant,
		SpecHash:       cr.camp.Hash,
		CellsDone:      int(cr.cellsDone.Load()),
		CellsTotal:     len(cr.camp.Cells),
		InstancesDone:  cr.instancesDone.Load(),
		InstancesTotal: cr.camp.Instances,
	}
	cr.errMu.Lock()
	if cr.err != nil {
		st.Error = cr.err.Error()
	}
	cr.errMu.Unlock()
	cr.repMu.Lock()
	st.Report = cr.report
	cr.repMu.Unlock()
	return st
}

// handleCampaignSubmit admits one campaign spec: decode and fully
// resolve (400 on any client error, including typed grid-limit
// rejections), reserve the whole grid against the admission gate (429
// past the high-water mark), and run asynchronously.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	corr, err := correlationFrom(r)
	if err != nil {
		s.mCampRejected.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ten, err := tenantFrom(r)
	if err != nil {
		s.mCampRejected.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	camp, err := campaign.DecodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.mCampRejected.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	tb, cur, ok := s.reserve(ten, camp.Instances)
	if !ok {
		s.mCampRejected.Inc()
		s.journal.Append(obslog.KindJobShed, "", corr,
			obslog.Labels{Count: camp.Instances, Tenant: ten, Detail: "campaign"})
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfter(cur), 10))
		writeError(w, http.StatusTooManyRequests,
			"server: %d instances queued (high-water %d); retry later", cur, s.cfg.HighWater)
		return
	}
	var rec []byte
	created := time.Now()
	if s.state != nil {
		// Persisted exactly like jobs; the normalized spec re-resolves to
		// the same cells and spec hash at boot, tying the record to its
		// checkpoint.
		if rec, err = encodeRecord(&stateRecord{Status: recAdmitted, Created: created, Corr: corr, Tenant: ten, Spec: &camp.Spec}); err != nil {
			s.release(tb, camp.Instances)
			s.mCampRejected.Inc()
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.release(tb, camp.Instances)
		s.mCampRejected.Inc()
		writeError(w, http.StatusServiceUnavailable, "server: draining, not accepting campaigns")
		return
	}
	s.cseq++
	cr := &campaignRun{
		id:      fmt.Sprintf("c-%06d", s.cseq),
		created: created,
		corr:    corr,
		tenant:  ten,
		tb:      tb,
		camp:    camp,
		done:    make(chan struct{}),
	}
	if s.state != nil {
		if cr.logged, err = s.state.append(cr.id, rec, false); err != nil {
			s.cseq--
			s.mu.Unlock()
			s.release(tb, camp.Instances)
			s.mCampRejected.Inc()
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	s.campaigns[cr.id] = cr
	s.corder = append(s.corder, cr.id)
	s.evictCampaignsLocked()
	s.wg.Add(1)
	s.mu.Unlock()

	if s.state != nil {
		// Acknowledged only once the admit frame commits, like jobs.
		if err := s.state.wait(cr.logged); err != nil {
			s.mu.Lock()
			delete(s.campaigns, cr.id)
			s.corder = removeID(s.corder, cr.id)
			s.mu.Unlock()
			s.wg.Done()
			s.release(tb, camp.Instances)
			s.mCampRejected.Inc()
			writeError(w, stateError(err), "%v", err)
			return
		}
	}

	s.mCampAccepted.Inc()
	s.journal.Append(obslog.KindCampaignStart, cr.id, corr,
		obslog.Labels{Count: camp.Instances, Tenant: ten, Detail: camp.Spec.Name})
	go s.runCampaign(cr)

	w.Header().Set("Location", "/v1/campaigns/"+cr.id)
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:              cr.id,
		Status:          jobState(cr.state.Load()).name(),
		Location:        "/v1/campaigns/" + cr.id,
		QueuedInstances: s.queued.Load(),
	})
}

// runCampaign executes one admitted campaign. It owns the campaign's
// queued-instance reservation: each completed cell returns its
// repetitions to the admission gate in one delta, and whatever an
// aborted campaign never ran is returned in one piece at the end.
// Accounting is deliberately cell-grained — OnCell deltas are the
// campaign runner's only progress feed, and admission only ever
// compares the queued gauge against the high-water mark, so cell-sized
// returns cost nothing but a little granularity.
func (s *Server) runCampaign(cr *campaignRun) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-s.stopCtx.Done():
		// Checkpoint-and-stop drain: the record is still "admitted"; the
		// successor process re-runs the campaign from its checkpoint.
		s.release(cr.tb, cr.camp.Instances)
		close(cr.done)
		return
	}
	defer func() { <-s.sem }()

	cr.state.Store(int32(stateRunning))
	s.mCampRunning.Inc()
	defer s.mCampRunning.Dec()

	cfg := campaign.Config{
		Shards:      s.cfg.Shards,
		Workers:     s.cfg.Workers,
		Metrics:     s.campMetrics,
		AxisMetrics: s.campAxes,
		Journal:     s.journal,
		Correlation: cr.id,
	}
	if s.state != nil {
		// With durable state armed, every campaign checkpoints under its
		// server ID: completed cells survive a crash or a
		// checkpoint-and-stop drain, and the resumed run's report is
		// byte-identical to an uninterrupted one (the PR 4 guarantee).
		// Resume is always on — a fresh ID has no manifest (an empty
		// checkpoint), a restarted one continues where its predecessor
		// stopped.
		cfg.Checkpoint = s.state.checkpointPath(cr.id)
		cfg.Resume = true
	}
	returned := int64(0)
	cfg.OnCell = func(p campaign.Progress) {
		// Serial with respect to itself (the runner delivers cell
		// completions on one goroutine), concurrent with admission
		// decisions.
		delta := p.InstancesDone - returned
		s.release(cr.tb, delta)
		if p.CellKey != "" {
			// Fresh cells feed the completion-rate EWMA; the initial
			// restored-checkpoint notification is bookkeeping, not
			// throughput.
			s.completed.Add(delta)
		}
		returned = p.InstancesDone
		cr.cellsDone.Store(int64(p.CellsDone))
		cr.instancesDone.Store(p.InstancesDone)
	}
	// Without durable state, Close drains campaigns to completion
	// exactly as before (stopCtx is never cancelled); with it, Close
	// cancels and the run stops at the next cell boundary.
	rep, err := cr.camp.Run(s.stopCtx, cfg)
	s.release(cr.tb, cr.camp.Instances-returned)
	if err != nil && s.state != nil && s.stopCtx.Err() != nil && errors.Is(err, context.Canceled) {
		// Interrupted by the drain, not failed: completed cells are in
		// the checkpoint, the record stays "admitted", and the next boot
		// on this state dir resumes the run. The campaign goes back to
		// "queued" for any status read racing the shutdown.
		cr.state.Store(int32(stateQueued))
		close(cr.done)
		return
	}
	outcome := "ok"
	if err != nil {
		cr.errMu.Lock()
		cr.err = err
		cr.errMu.Unlock()
		cr.state.Store(int32(stateFailed))
		s.mCampFailed.Inc()
		outcome = err.Error()
	} else {
		cr.repMu.Lock()
		cr.report = rep
		cr.repMu.Unlock()
		cr.state.Store(int32(stateDone))
		s.mCampCompleted.Inc()
	}
	if s.state != nil {
		s.saveCampaignTerminal(cr)
	}
	s.journal.Append(obslog.KindCampaignDone, cr.id, cr.corr, obslog.Labels{Detail: outcome})
	close(cr.done)
}

// saveCampaignTerminal appends cr's terminal frame, under s.mu and only
// while cr is still the table's entry, and waits for its commit — the
// campaign mirror of saveJobTerminal. As with jobs, a failed commit is
// either carried by the rewrite or leaves "admitted", and the next boot
// resumes from the checkpoint to the same deterministic report.
func (s *Server) saveCampaignTerminal(cr *campaignRun) {
	rec, err := encodeRecord(cr.record())
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.campaigns[cr.id] != cr {
		s.mu.Unlock()
		return
	}
	t, err := s.state.append(cr.id, rec, false)
	s.mu.Unlock()
	if err == nil && s.state.wait(t) == nil {
		// The checkpoint has served its purpose once the terminal
		// record is durable; eviction would remove it anyway.
		os.Remove(s.state.checkpointPath(cr.id)) //nolint:errcheck
	}
}

// evictCampaignsLocked trims the campaign table to MaxJobsKept via the
// shared finished-first eviction helper; an evicted campaign's durable
// record (by an evict frame) and checkpoint are forgotten with it.
// Unfinished campaigns are never evicted.
func (s *Server) evictCampaignsLocked() {
	s.corder = evictFinished(s.campaigns, s.corder, s.cfg.MaxJobsKept, &s.cevictSkip, func(id string) {
		if s.state != nil {
			s.state.append(id, evictBody, true)   //nolint:errcheck // a broken log persists nothing
			os.Remove(s.state.checkpointPath(id)) //nolint:errcheck
		}
	})
}

// lookupCampaign returns the campaign or writes a 404.
func (s *Server) lookupCampaign(w http.ResponseWriter, id string) *campaignRun {
	s.mu.Lock()
	cr := s.campaigns[id]
	s.mu.Unlock()
	if cr == nil {
		writeError(w, http.StatusNotFound, "server: unknown campaign %q", id)
	}
	return cr
}

// handleCampaign reports one campaign's status and, when finished, its
// report.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	cr := s.lookupCampaign(w, r.PathValue("id"))
	if cr == nil {
		return
	}
	writeJSON(w, http.StatusOK, cr.snapshot())
}

// handleCampaignStream serves one campaign's progress as server-sent
// events, through the same snapshot-stream machinery as the job stream.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	cr := s.lookupCampaign(w, r.PathValue("id"))
	if cr == nil {
		return
	}
	streamSnapshots(w, r, cr.done, func() any { return cr.snapshot() })
}
