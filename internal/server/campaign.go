package server

import (
	"fmt"
	"net/http"
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

// campaignRun is one admitted campaign: the campaign-specific part of
// its unit. Progress fields are atomics written by the runner's serial
// callbacks and read by status snapshots and the SSE stream without
// locks.
type campaignRun struct {
	unit
	camp *campaign.Campaign

	// restored, when non-nil, is a terminal snapshot loaded from the
	// state log after a restart; it is served verbatim (camp is nil).
	restored *CampaignStatus

	cellsDone     atomic.Int64
	instancesDone atomic.Int64

	repMu  sync.Mutex
	report *campaign.Report
}

// newCampaignRun wraps a resolved campaign; its whole grid is the size
// of its admission reservation.
func newCampaignRun(camp *campaign.Campaign) *campaignRun {
	cr := &campaignRun{camp: camp}
	cr.instances = camp.Instances
	return cr
}

// decodeCampaign decodes and fully resolves a POST /v1/campaigns body,
// typed grid-limit rejections included.
func decodeCampaign(s *Server, w http.ResponseWriter, r *http.Request) (work, error) {
	camp, err := campaign.DecodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	return newCampaignRun(camp), nil
}

// restoreCampaign rebuilds a campaign from its folded state record. An
// admitted one's normalized spec re-resolves to the same cells and spec
// hash, which ties the record to its checkpoint manifest.
func restoreCampaign(s *Server, rec *stateRecord) (work, error) {
	switch {
	case rec.Status != recAdmitted:
		if rec.Campaign == nil {
			return nil, fmt.Errorf("server: state record %s has no final snapshot", rec.ID)
		}
		return &campaignRun{restored: rec.Campaign}, nil
	case rec.Spec == nil:
		return nil, fmt.Errorf("server: state record %s has no spec", rec.ID)
	}
	camp, err := rec.Spec.Resolve()
	if err != nil {
		return nil, fmt.Errorf("server: state record %s: %v", rec.ID, err)
	}
	return newCampaignRun(camp), nil
}

func (cr *campaignRun) labels() obslog.Labels {
	return obslog.Labels{Detail: cr.camp.Spec.Name}
}

func (cr *campaignRun) status() any { return cr.snapshot() }

// snapshot assembles the wire status from the live counters. A
// campaign restored from a terminal state record serves its stored
// snapshot verbatim.
func (cr *campaignRun) snapshot() *CampaignStatus {
	if cr.restored != nil {
		return cr.restored
	}
	st := &CampaignStatus{
		ID:             cr.id,
		Status:         cr.statusName(),
		Created:        cr.created,
		Name:           cr.camp.Spec.Name,
		Tenant:         cr.tenant,
		SpecHash:       cr.camp.Hash,
		CellsDone:      int(cr.cellsDone.Load()),
		CellsTotal:     len(cr.camp.Cells),
		InstancesDone:  cr.instancesDone.Load(),
		InstancesTotal: cr.camp.Instances,
		Error:          cr.errorText(),
	}
	cr.repMu.Lock()
	st.Report = cr.report
	cr.repMu.Unlock()
	return st
}

func (cr *campaignRun) body(rec *stateRecord) {
	if rec.Status == recAdmitted {
		rec.Spec = &cr.camp.Spec
		return
	}
	rec.Campaign = cr.snapshot()
}

// run executes the campaign. Each completed cell returns its
// repetitions to the admission gate in one delta, and whatever an
// aborted campaign never ran is returned in one piece at the end.
// Accounting is deliberately cell-grained — OnCell deltas are the
// campaign runner's only progress feed, and admission only ever
// compares the queued gauge against the high-water mark, so cell-sized
// returns cost nothing but a little granularity.
func (cr *campaignRun) run(s *Server) error {
	cfg := campaign.Config{
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
	// (stopCtx is never cancelled); with it, Close cancels and the run
	// stops at the next cell boundary.
	rep, err := cr.camp.RunOn(s.stopCtx, s.arena, cfg)
	s.release(cr.tb, cr.camp.Instances-returned)
	if err == nil {
		cr.repMu.Lock()
		cr.report = rep
		cr.repMu.Unlock()
	}
	return err
}
