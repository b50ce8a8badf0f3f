package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/metrics"
	"leanconsensus/internal/obslog"
)

// jobState is a unit's lifecycle position.
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

// unit is one admitted job or campaign. Both kinds share one lifecycle:
// admission (handleSubmit), a wait for an execution slot and the run
// (run), the terminal save (saveTerminal), lookup, status and stream,
// and eviction once finished (evictLocked). What differs lives in the
// unit's kind (names, decoding, instruments) and its work (what runs,
// and what the status body and state record carry).
type unit struct {
	id      string
	kind    *kind
	work    work // the *job or *campaignRun that embeds this unit
	created time.Time
	corr    string  // X-Lean-Correlation: cross-process parent of the unit's root events
	tenant  string  // X-Lean-Tenant: the admission bucket the unit counts against
	tb      *tenant // the bucket itself, for reservation returns
	// instances is the size of the unit's admission reservation.
	instances int64
	// logged is the ticket of the unit's admit frame in the state log (0
	// when restored at boot or when state is off).
	logged uint64

	state atomic.Int32 // jobState
	errMu sync.Mutex
	err   error

	// done is closed when the unit finishes, and when a
	// checkpoint-and-stop drain hands it to the successor process.
	done chan struct{}
}

// base returns the unit itself; through embedding it is every work's
// way back to its unit.
func (u *unit) base() *unit { return u }

// statusName renders the current lifecycle state.
func (u *unit) statusName() string { return jobState(u.state.Load()).name() }

// finished reports whether the unit reached a terminal state.
func (u *unit) finished() bool {
	st := jobState(u.state.Load())
	return st == stateDone || st == stateFailed
}

// errorText is the unit's failure for the wire ("" unless failed).
func (u *unit) errorText() string {
	u.errMu.Lock()
	defer u.errMu.Unlock()
	if u.err == nil {
		return ""
	}
	return u.err.Error()
}

// record is the unit's current state-log record, ID aside.
func (u *unit) record() *stateRecord {
	rec := &stateRecord{Status: recAdmitted, Created: u.created, Corr: u.corr, Tenant: u.tenant}
	switch jobState(u.state.Load()) {
	case stateDone:
		rec.Status = recDone
	case stateFailed:
		rec.Status = recFailed
	}
	u.work.body(rec)
	return rec
}

// work is a unit's per-kind part, implemented by *job and *campaignRun.
type work interface {
	base() *unit
	// labels are the workload labels of the unit's admission event.
	labels() obslog.Labels
	// run executes the unit once it holds an execution slot, returning
	// its reservation to the admission gate as its instances finish.
	run(s *Server) error
	// status is the unit's wire body: a *JobStatus or *CampaignStatus.
	status() any
	// body sets rec's per-kind part: while the unit is admitted, what a
	// successor process needs to re-run it; once finished, its status.
	body(rec *stateRecord)
}

// kind is what jobs and campaigns do differently at the lifecycle's
// edges: their names, how a submission decodes and a state record
// restores, and their lifecycle instruments and table bookkeeping.
type kind struct {
	noun     string // "job" or "campaign"
	idFormat string // "j-%06d" or "c-%06d"
	route    string // "/v1/jobs/" or "/v1/campaigns/", a unit's Location prefix
	admitEv  obslog.Kind
	doneEv   obslog.Kind
	// checkpoints is set for campaigns: their progress survives in a
	// manifest under the state dir, forgotten with the record.
	checkpoints bool
	// decode reads and resolves a submission; every error is a 400.
	decode func(s *Server, w http.ResponseWriter, r *http.Request) (work, error)
	// restore rebuilds a unit from its folded state record: a finished
	// one serves its stored status, an admitted one is re-run.
	restore func(s *Server, rec *stateRecord) (work, error)

	// leanconsensus_<noun>s_total{event=...} and leanconsensus_<noun>s_running.
	accepted, rejected, completed, failed *metrics.Counter
	running                               *metrics.Gauge

	// Guarded by Server.mu.
	seq  uint64 // the last minted ID number
	kept int    // this kind's units in the table
	skip int    // eviction scan frontier into Server.order
}

// register creates the kind's lifecycle instruments on reg.
func (k *kind) register(reg *metrics.Registry, help string) {
	total := "leanconsensus_" + k.noun + "s_total"
	k.accepted = reg.Counter(total+metrics.Labels("event", "accepted"), help)
	k.rejected = reg.Counter(total+metrics.Labels("event", "rejected"), help)
	k.completed = reg.Counter(total+metrics.Labels("event", "completed"), help)
	k.failed = reg.Counter(total+metrics.Labels("event", "failed"), help)
	k.running = reg.Gauge("leanconsensus_"+k.noun+"s_running", k.noun+"s currently executing")
}

// handleSubmit admits one submission of kind k: decode and fully
// resolve (400 on any client error), reserve its instances against the
// admission gate (429 past the high-water mark), persist the admission
// when durable state is armed, and run it asynchronously.
func (s *Server) handleSubmit(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		corr, err := headerValue(r, CorrelationHeader, maxCorrelationLen)
		var ten string
		if err == nil {
			ten, err = headerValue(r, TenantHeader, maxTenantLen)
		}
		var wk work
		if err == nil {
			wk, err = k.decode(s, w, r)
		}
		if err != nil {
			k.rejected.Inc()
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		u := wk.base()
		tb, cur, ok := s.reserve(ten, u.instances)
		if !ok {
			k.rejected.Inc()
			s.journal.Append(obslog.KindJobShed, "", corr,
				obslog.Labels{Count: u.instances, Tenant: ten, Detail: k.noun})
			w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfter(cur), 10))
			writeError(w, http.StatusTooManyRequests,
				"server: %d instances queued (high-water %d); retry later", cur, s.cfg.HighWater)
			return
		}
		// unreserve answers an admission that fails past the gate.
		unreserve := func(code int, err error) {
			s.release(tb, u.instances)
			k.rejected.Inc()
			writeError(w, code, "%v", err)
		}
		u.kind, u.work, u.done = k, wk, make(chan struct{})
		u.created, u.corr, u.tenant, u.tb = time.Now(), corr, ten, tb
		var rec []byte
		if s.state != nil {
			// Encoded before the table lock: under it, admission only mints
			// the ID and appends the frame.
			if rec, err = encodeRecord(u.record()); err != nil {
				unreserve(http.StatusInternalServerError, err)
				return
			}
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			unreserve(http.StatusServiceUnavailable, fmt.Errorf("server: draining, not accepting %ss", k.noun))
			return
		}
		k.seq++
		u.id = fmt.Sprintf(k.idFormat, k.seq)
		if s.state != nil {
			if u.logged, err = s.state.append(u.id, rec, false); err != nil {
				k.seq--
				s.mu.Unlock()
				unreserve(http.StatusServiceUnavailable, err)
				return
			}
		}
		s.insertLocked(u)
		s.wg.Add(1)
		s.mu.Unlock()

		if s.state != nil {
			// The durable ID contract: a 202'd ID resolves after any restart,
			// so the admission is acknowledged only once its frame commits. A
			// frame that cannot commit is an admission that never happened;
			// its ID stays unused.
			if err := s.state.wait(u.logged); err != nil {
				s.mu.Lock()
				s.dropLocked(slices.Index(s.order, u))
				s.mu.Unlock()
				s.wg.Done()
				unreserve(stateError(err), err)
				return
			}
		}

		k.accepted.Inc()
		admit := wk.labels()
		admit.Count, admit.Tenant = u.instances, ten
		s.journal.Append(k.admitEv, u.id, corr, admit)
		go s.run(u)

		loc := k.route + u.id
		w.Header().Set("Location", loc)
		writeJSON(w, http.StatusAccepted, submitResponse{
			ID:              u.id,
			Status:          u.statusName(),
			Location:        loc,
			QueuedInstances: s.queued.Load(),
		})
	}
}

// run takes an execution slot for one admitted unit, runs it, and
// records the outcome. The unit's work returns the reservation as
// instances finish; a unit handed off at the checkpoint-and-stop drain
// returns whatever it still holds and leaves its record "admitted".
func (s *Server) run(u *unit) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-s.stopCtx.Done():
		// Checkpoint-and-stop drain (durable state armed): the unit never
		// started, its record is still "admitted", and the successor
		// process re-runs it — hand back the reservation and leave.
		s.release(u.tb, u.instances)
		close(u.done)
		return
	}
	defer func() { <-s.sem }()

	k := u.kind
	u.state.Store(int32(stateRunning))
	k.running.Inc()
	defer k.running.Dec()

	err := u.work.run(s)
	if err != nil && s.state != nil && s.stopCtx.Err() != nil && errors.Is(err, context.Canceled) {
		// Interrupted by the drain, not failed — only a campaign stops
		// early, at a cell boundary: completed cells are in the
		// checkpoint, the record stays "admitted", and the next boot on
		// this state dir resumes the run. The unit goes back to "queued"
		// for any status read racing the shutdown.
		u.state.Store(int32(stateQueued))
		close(u.done)
		return
	}
	outcome := "ok"
	if err != nil {
		u.errMu.Lock()
		u.err = err
		u.errMu.Unlock()
		u.state.Store(int32(stateFailed))
		k.failed.Inc()
		outcome = err.Error()
	} else {
		u.state.Store(int32(stateDone))
		k.completed.Inc()
	}
	if s.state != nil {
		s.saveTerminal(u)
	}
	s.journal.Append(k.doneEv, u.id, u.corr, obslog.Labels{Detail: outcome})
	close(u.done)
}

// saveTerminal appends u's terminal frame, under s.mu and only while u
// is still the table's entry, and waits for its commit. The unit is
// already in a terminal state, so a concurrent evictLocked may have
// deleted the entry and appended its evict frame; a terminal frame
// after it would resurrect the evicted ID at the next boot, with disk
// and table disagreeing. Appending under s.mu orders the two: either
// the terminal frame lands first and the evict frame follows it, or
// eviction wins and the save is skipped.
//
// A failed commit needs no handling: either the rewrite that follows it
// carries the finished unit from the table, or the record stays
// "admitted" and the next boot re-runs the unit (a campaign from its
// checkpoint), which serves the same deterministic outcome.
func (s *Server) saveTerminal(u *unit) {
	rec, err := encodeRecord(u.record())
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.units[u.id] != u {
		s.mu.Unlock()
		return
	}
	t, err := s.state.append(u.id, rec, false)
	s.mu.Unlock()
	if err == nil && s.state.wait(t) == nil && u.kind.checkpoints {
		// The checkpoint has served its purpose once the terminal record
		// is durable; eviction would remove it anyway.
		os.Remove(s.state.checkpointPath(u.id)) //nolint:errcheck
	}
}

// insertLocked adds u to the table and trims u's kind to the bound.
func (s *Server) insertLocked(u *unit) {
	s.units[u.id] = u
	s.order = append(s.order, u)
	u.kind.kept++
	s.evictLocked(u.kind)
}

// dropLocked removes the unit at order index i from the table, keeping
// each kind's eviction frontier on the unit it pointed at.
func (s *Server) dropLocked(i int) {
	u := s.order[i]
	delete(s.units, u.id)
	s.order = slices.Delete(s.order, i, i+1)
	u.kind.kept--
	for _, k := range [...]*kind{&s.jobKind, &s.campKind} {
		if k.skip > i {
			k.skip--
		}
	}
}

// evictLocked trims k's units in the table to MaxJobsKept, evicting
// finished units in creation order; live units are never evicted, so
// while everything is live the table runs long. An evicted unit's
// durable record is forgotten with it, by an evict frame that rides the
// next commit, and so is a campaign's checkpoint.
//
// k.skip persists across calls: k's units before it were live on the
// last scan, so the common case — a long prefix of long-running work
// ahead of freshly finished units — costs one scan from the frontier
// instead of an O(n²) restart from the front. When a scan from the
// frontier finds nothing evictable, the prefix is rescanned once (units
// skipped earlier may have finished since).
func (s *Server) evictLocked(k *kind) {
	for k.kept > s.cfg.MaxJobsKept {
		i := k.skip
		for i < len(s.order) && (s.order[i].kind != k || !s.order[i].finished()) {
			i++
		}
		if i >= len(s.order) {
			if k.skip == 0 {
				return
			}
			k.skip = 0
			continue
		}
		id := s.order[i].id
		s.dropLocked(i)
		k.skip = i
		if s.state != nil {
			s.state.append(id, evictBody, true) //nolint:errcheck // a broken log persists nothing
			if k.checkpoints {
				os.Remove(s.state.checkpointPath(id)) //nolint:errcheck
			}
		}
	}
}

// lookup returns the unit of kind k the request's {id} names, or writes
// a 404.
func (s *Server) lookup(k *kind, w http.ResponseWriter, r *http.Request) *unit {
	id := r.PathValue("id")
	s.mu.Lock()
	u := s.units[id]
	s.mu.Unlock()
	if u == nil || u.kind != k {
		writeError(w, http.StatusNotFound, "server: unknown %s %q", k.noun, id)
		return nil
	}
	return u
}

// handleStatus reports one unit's status and, once finished, its
// results or report.
func (s *Server) handleStatus(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if u := s.lookup(k, w, r); u != nil {
			writeJSON(w, http.StatusOK, u.work.status())
		}
	}
}
