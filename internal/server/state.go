package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"leanconsensus/internal/campaign"
	"leanconsensus/internal/metrics"
	"leanconsensus/internal/obslog/store"
)

// The durable service-state layer. With Config.StateDir set, the server
// keeps one append-only state log of CRC-framed JSON records, in the
// journal store's frame format, and folds it at boot:
//
//   - An admit frame is appended when a job or campaign is minted, a
//     terminal frame (the final snapshot) when it finishes, and an
//     evict frame when the table bound drops it. Frames are appended
//     under the table lock s.mu, so log order is table order and a
//     terminal frame can never follow its own evict.
//   - Group commit: the appender then waits outside the lock for the
//     one write+fsync that covers its frame, and frames appended while
//     a commit is in flight share the next one. Admission answers 202
//     only after its admit frame commits, and a runner journals its
//     done event only after its terminal frame commits: two fsyncs per
//     job. Evict frames ride the next commit; Close commits the rest.
//   - Boot folds the log: the last record per ID wins, an evict removes
//     the ID, and the ID counters are the maximum of every ID seen and
//     of the counters frame a rewrite puts at the head of the log, so a
//     restarted process never re-mints a client's ID. Terminal records
//     are served again verbatim; "admitted" ones are work the previous
//     process never finished and re-run (jobs from their stored submit
//     body, campaigns from their per-ID checkpoint manifest). A torn
//     tail is truncated, as the journal store does, and journaled as
//     one journal.truncate event.
//   - A rewrite streams the live table into a fresh file (temp file,
//     fsync, rename, directory fsync). It compacts the log once dead
//     bytes exceed both the live bytes and compactFloor, and it is how
//     the log recovers from a failed commit: after a failed fsync the
//     kernel may have dropped the dirty pages, so a retried fsync could
//     report success without the data, and the failed file is never
//     synced again. The failed batch's admissions answer 500 and are
//     rolled back; its finished work is in the table, so the rewrite
//     carries it. If the rewrite fails too, the log stops and every
//     later admission answers 503 until a restart.
//
// The state log is the source of truth for work; the journal is the
// source of truth for history. Boot folds state first, then arms the
// journal store, so the resumed work's lifecycle events land after the
// replayed history they continue. Campaign checkpoint manifests stay
// files of their own under <dir>/checkpoints.

const (
	// stateLogName is the log's file name inside the state dir.
	stateLogName = "state.log"
	// compactFloor is the dead-byte count below which the log is never
	// compacted, however small the live table.
	compactFloor = 4 << 20
	// maxStateFrame bounds one record's payload: a terminal campaign
	// frame carries its whole report, up to campaign.MaxWireCells cells.
	maxStateFrame = 64 << 20
)

// Record status values. A job or campaign is "admitted" until a
// terminal frame says "done" or "failed"; a crash in between leaves
// "admitted", exactly the marker boot uses to find interrupted work.
const (
	recAdmitted = "admitted"
	recDone     = "done"
	recFailed   = "failed"
	recEvicted  = "evicted"
	recCounters = "counters"
)

// stateRecord is one state-log frame. Job IDs start "j-" and campaign
// IDs "c-"; the prefix says which table a record belongs to.
type stateRecord struct {
	ID      string    `json:"id,omitempty"`
	Status  string    `json:"status"`
	Created time.Time `json:"created,omitzero"`
	Corr    string    `json:"correlation,omitempty"`
	Tenant  string    `json:"tenant,omitempty"`
	// Submit is an admitted job's original POST /v1/jobs body, stored
	// verbatim so an interrupted job re-decodes through the same
	// DecodeSubmit path at boot (registries revalidate; results are
	// deterministic).
	Submit json.RawMessage `json:"submit,omitempty"`
	// Spec is an admitted campaign's normalized spec; it re-resolves at
	// boot to the same cells and spec hash, which ties the record to its
	// checkpoint manifest.
	Spec *campaign.Spec `json:"spec,omitempty"`
	// Job and Campaign are terminal snapshots, served verbatim after a
	// restart (wall-clock fields and all: the record is the history).
	Job      *JobStatus      `json:"job,omitempty"`
	Campaign *CampaignStatus `json:"campaign,omitempty"`
	// JobSeq and CampaignSeq are the ID counters of a counters frame.
	JobSeq      uint64 `json:"jobSeq,omitempty"`
	CampaignSeq uint64 `json:"campaignSeq,omitempty"`
}

// encodeRecord marshals rec without its ID: the log splices the ID in
// when it frames the record, so callers encode outside the table lock
// before the ID is minted.
func encodeRecord(rec *stateRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("server: encode state record: %w", err)
	}
	return b, nil
}

// evictBody is every evict frame's record, minus the ID.
var evictBody = []byte(`{"status":"evicted"}`)

// errStateBroken answers admissions once a failed commit's rewrite has
// failed too: nothing can be made durable until a restart.
var errStateBroken = errors.New("server: durable state unavailable after a failed commit; restart to recover")

// errStateClosed refuses appends after Close.
var errStateClosed = errors.New("server: state log closed")

// frameRef describes one frame in a commit batch, for the live-byte
// index once the batch is on disk.
type frameRef struct {
	id    string
	size  int64
	evict bool
}

// failedBatch is a range of tickets whose commit failed.
type failedBatch struct {
	lo, hi uint64
	err    error
}

// stateLog is the group-committed state log. Appends run under s.mu and
// take mu briefly; commits run outside both, one at a time, by whichever
// waiter finds none in flight.
type stateLog struct {
	dir, path string
	// sync is the fsync seam: (*os.File).Sync in production; internal
	// tests substitute faults and delays.
	sync func(*os.File) error
	// snapshot streams the live table into a rewrite (Server.snapshotState).
	snapshot func(emit func(id string, body []byte) error) error

	mu         sync.Mutex
	cond       sync.Cond // signalled after every commit
	buf        []byte    // frames appended since the last commit began
	refs       []frameRef
	spareBuf   []byte // the other half of the double buffer
	spareRefs  []frameRef
	scratch    []byte // payload assembly for append
	appended   uint64 // tickets handed out; the next frame gets appended+1
	resolved   uint64 // tickets whose commit has finished, one way or the other
	failed     []failedBatch
	committing bool
	broken     error

	// Owned by the committing goroutine (and boot, before any commit).
	f     *os.File
	index map[string]int64 // latest frame size per live ID ("" = counters)
	size  int64            // log bytes on disk
	live  int64            // sum of index
	floor int64            // compaction floor; raised after a failed compaction

	mCommit  *metrics.Histogram
	mCommits *metrics.Counter
	mRecords *metrics.Counter
}

// stateFold is what boot reads back from the log.
type stateFold struct {
	recs            map[string]*stateRecord
	order           []string // first-appearance order
	jobSeq, campSeq uint64
	torn            int64 // bytes cut from a torn or corrupt tail
}

// openStateLog folds the log under dir (creating the layout if needed),
// truncates a torn tail, and returns the log positioned to append, with
// its commit telemetry registered on reg.
func openStateLog(dir string, reg *metrics.Registry) (*stateLog, *stateFold, error) {
	for _, old := range []string{"seqs.json", "jobs", "campaigns"} {
		if _, err := os.Lstat(filepath.Join(dir, old)); err == nil {
			return nil, nil, fmt.Errorf("server: state dir %s holds the pre-log per-file layout (%s); this version reads only %s", dir, old, stateLogName)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: state dir: %w", err)
	}
	l := &stateLog{
		dir:   dir,
		path:  filepath.Join(dir, stateLogName),
		sync:  (*os.File).Sync,
		index: make(map[string]int64),
		floor: compactFloor,
	}
	l.cond.L = &l.mu
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: state log: %w", err)
	}
	fold, err := l.fold(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	l.f = f
	l.mCommit = reg.Histogram("leanconsensus_state_commit_seconds",
		"state log group-commit latency (write and fsync) in seconds", fsyncBuckets)
	l.mCommits = reg.Counter("leanconsensus_state_commits_total", "state log group commits")
	l.mRecords = reg.Counter("leanconsensus_state_records_total", "state log records committed")
	return l, fold, nil
}

// fold reads every frame of f, builds the live-byte index, and cuts a
// torn or corrupt tail. A frame whose CRC holds but whose JSON does not
// decode is real damage, not a torn write: boot fails loudly rather
// than silently forgetting admitted work.
func (l *stateLog) fold(f *os.File) (*stateFold, error) {
	fold := &stateFold{recs: make(map[string]*stateRecord)}
	fr := store.NewFrameReader(f, maxStateFrame)
	for {
		at := fr.Offset()
		payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err == store.ErrBadFrame {
			st, serr := f.Stat()
			if serr != nil {
				return nil, fmt.Errorf("server: state log: %w", serr)
			}
			fold.torn = st.Size() - fr.Offset()
			if err := f.Truncate(fr.Offset()); err != nil {
				return nil, fmt.Errorf("server: state log: %w", err)
			}
			break
		}
		if err != nil {
			return nil, fmt.Errorf("server: state log: %w", err)
		}
		rec := &stateRecord{}
		if err := json.Unmarshal(payload, rec); err != nil {
			return nil, fmt.Errorf("server: corrupt state record at offset %d: %v", at, err)
		}
		l.account(rec.ID, fr.Offset()-at, rec.Status == recEvicted)
		switch rec.Status {
		case recCounters:
			fold.jobSeq = max(fold.jobSeq, rec.JobSeq)
			fold.campSeq = max(fold.campSeq, rec.CampaignSeq)
			continue
		case recAdmitted, recDone, recFailed, recEvicted:
			if rec.ID == "" {
				return nil, fmt.Errorf("server: state record at offset %d has no ID", at)
			}
		default:
			return nil, fmt.Errorf("server: state record %s has unknown status %q", rec.ID, rec.Status)
		}
		if isCampaignID(rec.ID) {
			fold.campSeq = max(fold.campSeq, idSeq(rec.ID))
		} else {
			fold.jobSeq = max(fold.jobSeq, idSeq(rec.ID))
		}
		if rec.Status == recEvicted {
			delete(fold.recs, rec.ID)
			continue
		}
		if _, seen := fold.recs[rec.ID]; !seen {
			fold.order = append(fold.order, rec.ID)
		}
		fold.recs[rec.ID] = rec
	}
	// Evicted IDs leave holes in the first-appearance order.
	live := fold.order[:0]
	for _, id := range fold.order {
		if fold.recs[id] != nil {
			live = append(live, id)
		}
	}
	fold.order = live
	return fold, nil
}

// account updates the live-byte index for one frame now on disk.
func (l *stateLog) account(id string, size int64, evict bool) {
	l.size += size
	l.live -= l.index[id]
	if evict {
		delete(l.index, id)
		return
	}
	l.index[id] = size
	l.live += size
}

// appendFrame appends body as one frame with id spliced in as its
// first field, assembling the payload in scratch.
func appendFrame(dst []byte, scratch *[]byte, id string, body []byte) []byte {
	if id == "" {
		return store.AppendFrame(dst, body)
	}
	p := append(append(append((*scratch)[:0], `{"id":"`...), id...), `",`...)
	*scratch = append(p, body[1:]...)
	return store.AppendFrame(dst, *scratch)
}

// append buffers one frame for id and returns its ticket, which wait
// resolves. Callers hold s.mu, so tickets follow table order.
func (l *stateLog) append(id string, body []byte, evict bool) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, l.broken
	}
	n := len(l.buf)
	l.buf = appendFrame(l.buf, &l.scratch, id, body)
	l.refs = append(l.refs, frameRef{id: id, size: int64(len(l.buf) - n), evict: evict})
	l.appended++
	return l.appended, nil
}

// committed reports whether ticket t is durable in the current file.
// Boot-restored entries carry ticket 0.
func (l *stateLog) committed(t uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return t <= l.resolved && l.failedLocked(t) == nil
}

// failedLocked returns the error of the failed batch holding t, if any.
func (l *stateLog) failedLocked(t uint64) error {
	for i := len(l.failed) - 1; i >= 0 && l.failed[i].hi >= t; i-- {
		if t >= l.failed[i].lo {
			return l.failed[i].err
		}
	}
	return nil
}

// wait blocks until ticket t's commit has finished and reports whether
// the frame is durable. The first waiter to find no commit in flight
// runs one for everything appended so far.
func (l *stateLog) wait(t uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if t <= l.resolved {
			return l.failedLocked(t)
		}
		if l.broken != nil {
			return l.broken
		}
		if !l.committing {
			l.commitLocked()
			continue
		}
		l.cond.Wait()
	}
}

// commitLocked writes and fsyncs every buffered frame, handles a failure
// by rewriting the log from the table, and compacts when due. It is
// entered and left with mu held, and releases it for all file work.
func (l *stateLog) commitLocked() {
	l.committing = true
	batch, refs, upto, syncf := l.buf, l.refs, l.appended, l.sync
	l.buf, l.refs = l.spareBuf[:0], l.spareRefs[:0]
	l.mu.Unlock()

	start := time.Now()
	_, err := l.f.Write(batch)
	if err == nil {
		err = syncf(l.f)
	}
	l.mCommit.Observe(time.Since(start).Seconds())
	l.mCommits.Inc()
	l.mRecords.Add(int64(len(refs)))
	compact := false
	if err == nil {
		for _, r := range refs {
			l.account(r.id, r.size, r.evict)
		}
		dead := l.size - l.live
		compact = dead > l.live && dead > l.floor
	} else {
		err = fmt.Errorf("server: state log commit: %w", err)
		// Cut the failed batch back off: if the rewrite fails too, the
		// old file stays the log, holding exactly the committed frames.
		l.f.Truncate(l.size) //nolint:errcheck // best effort; the rewrite replaces the file
		l.mu.Lock()
		l.failed = append(l.failed, failedBatch{lo: l.resolved + 1, hi: upto, err: err})
		l.mu.Unlock()
		if rerr := l.rewrite(syncf); rerr != nil {
			l.mu.Lock()
			l.broken = errStateBroken
			l.mu.Unlock()
		}
	}

	l.mu.Lock()
	l.resolved = upto
	clear(refs) // drop the ID strings
	l.spareBuf, l.spareRefs = batch[:0], refs[:0]
	if compact {
		// Release this batch's waiters before the rewrite; frames appended
		// meanwhile stay buffered for the next commit, into the new file.
		l.cond.Broadcast()
		l.mu.Unlock()
		if l.rewrite(syncf) != nil {
			// The old file is intact; retry once twice the dead bytes.
			l.floor = 2 * (l.size - l.live)
		}
		l.mu.Lock()
	}
	l.committing = false
	l.cond.Broadcast()
}

// rewrite streams the live table into a fresh file and renames it over
// the log: the counters, then every entry whose admission is durable.
// Buffered frames are not part of it; they follow at the next commit.
// On error the old file stays in place. Runs on the committing
// goroutine, with mu released.
func (l *stateLog) rewrite(syncf func(*os.File) error) error {
	tmp, err := os.CreateTemp(l.dir, stateLogName+".tmp-*")
	if err != nil {
		return err
	}
	index := make(map[string]int64, len(l.index))
	var size int64
	var frame, scratch []byte
	bw := bufio.NewWriterSize(tmp, 1<<16)
	err = l.snapshot(func(id string, body []byte) error {
		frame = appendFrame(frame[:0], &scratch, id, body)
		index[id] = int64(len(frame))
		size += int64(len(frame))
		_, err := bw.Write(frame)
		return err
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = syncf(tmp)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), l.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(l.dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort; some filesystems reject dir fsync
		d.Close()
	}
	l.f.Close() // the replaced file is never synced again
	l.f, l.index, l.size, l.live = tmp, index, size, size
	return nil
}

// close commits whatever is still buffered and closes the file.
func (l *stateLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.committing {
		l.cond.Wait()
	}
	if l.broken == errStateClosed {
		return nil
	}
	var err error
	if l.broken == nil && l.appended > l.resolved {
		l.commitLocked()
		err = l.failedLocked(l.appended)
	}
	if l.broken != nil {
		err = l.broken
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.broken = errStateClosed
	return err
}

// checkpointPath is a campaign's manifest location, derived from the
// server campaign ID, so the record and the checkpoint can only ever
// describe the same run.
func (l *stateLog) checkpointPath(id string) string {
	return filepath.Join(l.dir, "checkpoints", id+".ckpt")
}

// stateError maps a failed admission commit to its status code.
func stateError(err error) int {
	if errors.Is(err, errStateBroken) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// armState opens the state log and restores the previous process's
// table. Terminal records become servable history again; records still
// "admitted" are interrupted work, returned to the caller for re-running
// once the journal is armed.
//
// Runs inside New before the server serves anything, so the table
// mutations need no locks.
func (s *Server) armState() (rerun []*unit, torn int64, err error) {
	st, fold, err := openStateLog(s.cfg.StateDir, s.reg)
	if err != nil {
		return nil, 0, err
	}
	st.snapshot = s.snapshotState
	s.state = st
	s.jobKind.seq, s.campKind.seq = fold.jobSeq, fold.campSeq

	for _, id := range fold.order {
		rec := fold.recs[id]
		k := &s.jobKind
		if isCampaignID(id) {
			k = &s.campKind
		}
		wk, err := k.restore(s, rec)
		if err != nil {
			return nil, 0, err
		}
		u := wk.base()
		u.id, u.kind, u.work, u.done = id, k, wk, make(chan struct{})
		u.created, u.corr, u.tenant = rec.Created, rec.Corr, rec.Tenant
		if rec.Status == recAdmitted {
			rerun = append(rerun, u)
		} else {
			u.state.Store(int32(terminalState(rec.Status)))
			close(u.done)
		}
		// A history larger than MaxJobsKept still respects the table
		// bound; eviction appends the trimmed entries' evict frames too.
		s.insertLocked(u)
	}
	return rerun, fold.torn, nil
}

// terminalState maps a terminal record status to the lifecycle state.
func terminalState(status string) jobState {
	if status == recDone {
		return stateDone
	}
	return stateFailed
}

// snapshotState streams the live table into a log rewrite: a counters
// frame, then every entry whose admit frame is durable, oldest first.
// Entries whose admit frame is still buffered follow in the buffer, and
// those of a failed batch are left out: they are being rolled back. The
// table lock is held for one pass collecting entries; records are
// encoded outside it, one at a time.
func (s *Server) snapshotState(emit func(id string, body []byte) error) error {
	s.mu.Lock()
	counters := stateRecord{Status: recCounters, JobSeq: s.jobKind.seq, CampaignSeq: s.campKind.seq}
	units := make([]*unit, 0, len(s.order))
	for _, u := range s.order {
		if s.state.committed(u.logged) {
			units = append(units, u)
		}
	}
	s.mu.Unlock()

	body, err := encodeRecord(&counters)
	if err == nil {
		err = emit("", body)
	}
	for _, u := range units {
		if err != nil {
			return err
		}
		if body, err = encodeRecord(u.record()); err == nil {
			err = emit(u.id, body)
		}
	}
	return err
}

// isCampaignID reports whether id names a campaign (c-%06d) rather
// than a job (j-%06d).
func isCampaignID(id string) bool { return strings.HasPrefix(id, "c-") }

// idSeq parses the numeric tail of a "j-%06d"/"c-%06d" ID (0 when
// malformed).
func idSeq(id string) uint64 {
	i := strings.IndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, _ := strconv.ParseUint(id[i+1:], 10, 64)
	return n
}
