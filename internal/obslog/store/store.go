// Package store is the operations journal's durable half: a segmented
// append-only on-disk store for obslog events, so the service's
// lifecycle record survives the process that wrote it. The in-memory
// ring (obslog.Journal) answers "what just happened" with zero cost on
// the producers; this store answers "what happened before the restart"
// — the question a multi-hour adversarial sweep's post-mortem actually
// asks — and is the substrate the distributed-campaigns coordinator
// (ROADMAP) will read worker histories from.
//
// # Layout
//
// A store directory holds numbered segment files:
//
//	journal-00000000000000000001.seg
//	journal-00000000000000004097.seg
//	...
//
// named by the sequence number of their first record, so the set is
// orderable from names alone. Exactly one segment (the newest) is
// active for appends; the rest are immutable.
//
// # Framing
//
// Each record is one journal event as JSON, framed by the package's
// frame codec (frame.go):
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of payload
//	payload    the event as JSON
//	'\n'
//
// The JSON-with-newline body keeps segments greppable (cut the first 8
// bytes of each frame and it is JSONL); the length prefix makes the
// reader O(records) without scanning for delimiters; the CRC makes
// corruption detectable per record instead of poisoning a whole file.
//
// # Crash safety
//
// Appends are buffered and fsynced per batch (the obslog.Follower hands
// the store coalesced batches, so a busy service pays one fsync for
// many events). A crash can therefore lose the unsynced tail and leave
// a torn final frame. Open scans every segment, truncates at the first
// frame that fails validation (short header, absurd length, CRC
// mismatch, missing terminator, undecodable payload, non-increasing
// sequence), and discards any later segments — keeping the invariant
// that replay is a contiguous, verified record. The truncation is
// surfaced in Recovery so the caller can journal exactly one
// journal.truncate event.
//
// # Rotation and retention
//
// A segment rotates when it would exceed SegmentBytes. Retention drops
// whole closed segments: past MaxSegments files, or when a segment's
// newest record is older than MaxAge. Retention only ever shortens the
// front of the history, so the retained window is always a contiguous
// sequence range [FirstSeq, LastSeq] — the property the ?since= replay
// contract depends on, pinned by TestRetentionKeepsContiguousRange.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"leanconsensus/internal/obslog"
)

// Defaults applied by Open.
const (
	// DefaultSegmentBytes is the rotation threshold. Journal events are a
	// few hundred bytes; 4 MiB holds ~10k events per segment.
	DefaultSegmentBytes = 4 << 20
	// DefaultMaxSegments bounds the directory to a few hundred MiB of
	// history at the default segment size.
	DefaultMaxSegments = 64
	// maxRecordBytes is the sanity bound on a frame's declared payload
	// length; anything larger is treated as corruption, not a record.
	maxRecordBytes = 1 << 20
)

const (
	segPrefix = "journal-"
	segSuffix = ".seg"
)

// Options tunes a store. The zero value selects every default.
type Options struct {
	// SegmentBytes is the size past which the active segment rotates
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// MaxSegments caps the segment-file count; the oldest closed
	// segments are deleted beyond it (default DefaultMaxSegments).
	MaxSegments int
	// MaxAge, when positive, drops closed segments whose newest record
	// is older than MaxAge at rotation time.
	MaxAge time.Duration
	// NoSync skips the per-batch fsync (tests; never production).
	NoSync bool
	// OnFsync, when non-nil, observes each fsync's duration — the
	// leanconsensus_journal_fsync_seconds histogram feed.
	OnFsync func(time.Duration)

	now func() time.Time // retention clock; tests pin it
}

// Recovery reports what Open had to discard to restore a verified
// store: zero-valued when the directory was clean.
type Recovery struct {
	// Truncated is true when Open cut a torn or corrupt tail.
	Truncated bool
	// DroppedBytes counts the bytes discarded (torn frame plus any
	// unreachable later segments).
	DroppedBytes int64
	// File is the first segment that failed validation.
	File string
}

// segment is one on-disk file's index entry.
type segment struct {
	path        string
	first, last uint64 // sequence range held
	lastTS      int64  // newest record's timestamp, for age retention
	bytes       int64
}

// Store is a segmented on-disk journal store. It is safe for concurrent
// use; construct with Open and Close to flush. Store implements
// obslog.Sink, so wiring persistence is journal.Follow(store, ...).
type Store struct {
	dir string
	opt Options

	mu       sync.Mutex
	segs     []segment // ascending by first; the last entry is active
	f        *os.File  // active segment, nil until the first append
	w        *bufio.Writer
	scratch  []byte // frame assembly buffer, reused across appends
	total    int64  // bytes across all segments
	recovery Recovery
	fsyncs   uint64
}

// Open scans (creating if needed) a store directory, validates every
// segment, truncates torn tails, and returns the store positioned to
// append after its newest record.
func Open(dir string, opt Options) (*Store, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.MaxSegments <= 0 {
		opt.MaxSegments = DefaultMaxSegments
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	s := &Store{dir: dir, opt: opt}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan indexes the directory: names give the order, a full read of each
// file gives the verified contents.
func (s *Store) scan() error {
	names, err := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	type cand struct {
		path  string
		first uint64
	}
	cands := make([]cand, 0, len(names))
	for _, path := range names {
		base := filepath.Base(path)
		numeric := strings.TrimSuffix(strings.TrimPrefix(base, segPrefix), segSuffix)
		first, err := strconv.ParseUint(numeric, 10, 64)
		if err != nil {
			return fmt.Errorf("store: alien file %q in journal dir", base)
		}
		cands = append(cands, cand{path: path, first: first})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].first < cands[j].first })

	var prevLast uint64
	for i, c := range cands {
		seg, keepBytes, ok, err := validateSegment(c.path, prevLast)
		if err != nil {
			return err
		}
		if !ok {
			// Torn or corrupt: truncate here and drop everything after —
			// later segments would sit beyond a gap no replay may cross.
			if !s.recovery.Truncated {
				s.recovery.Truncated = true
				s.recovery.File = filepath.Base(c.path)
			}
			st, statErr := os.Stat(c.path)
			if statErr != nil {
				return fmt.Errorf("store: %v", statErr)
			}
			s.recovery.DroppedBytes += st.Size() - keepBytes
			if keepBytes == 0 {
				if err := os.Remove(c.path); err != nil {
					return fmt.Errorf("store: %v", err)
				}
			} else {
				if err := os.Truncate(c.path, keepBytes); err != nil {
					return fmt.Errorf("store: %v", err)
				}
				seg.bytes = keepBytes
				s.segs = append(s.segs, seg)
				s.total += seg.bytes
			}
			for _, later := range cands[i+1:] {
				st, statErr := os.Stat(later.path)
				if statErr == nil {
					s.recovery.DroppedBytes += st.Size()
				}
				if err := os.Remove(later.path); err != nil {
					return fmt.Errorf("store: %v", err)
				}
			}
			break
		}
		if seg.first != 0 { // skip empty (freshly created, never written) files
			s.segs = append(s.segs, seg)
			s.total += seg.bytes
			prevLast = seg.last
		} else if err := os.Remove(c.path); err != nil {
			return fmt.Errorf("store: %v", err)
		}
	}
	return nil
}

// validateSegment reads one segment and returns its index entry, the
// byte offset up to which it is valid, and whether it is fully intact.
// prevLast is the previous segment's newest sequence number; records
// must keep ascending across the segment boundary.
func validateSegment(path string, prevLast uint64) (seg segment, keepBytes int64, intact bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return seg, 0, false, fmt.Errorf("store: %v", err)
	}
	defer f.Close()
	seg.path = path
	fr := NewFrameReader(f, maxRecordBytes)
	last := prevLast
	for {
		payload, err := fr.Next()
		switch {
		case err == io.EOF:
			return seg, fr.Offset(), true, nil // clean end
		case err == ErrBadFrame:
			return seg, fr.Offset(), false, nil
		case err != nil:
			return seg, 0, false, fmt.Errorf("store: %v", err)
		}
		var e obslog.Event
		if err := json.Unmarshal(payload, &e); err != nil || e.Seq <= last {
			return seg, seg.bytes, false, nil
		}
		last = e.Seq
		if seg.first == 0 {
			seg.first = e.Seq
		}
		seg.last = e.Seq
		seg.lastTS = e.TS
		seg.bytes = fr.Offset()
	}
}

// Recovery reports what Open discarded, if anything.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// FirstSeq reports the oldest retained sequence number (0 when empty).
func (s *Store) FirstSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[0].first
}

// LastSeq reports the newest retained sequence number (0 when empty).
// A persistence follower resumes from here so a restart never re-writes
// history.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeqLocked()
}

func (s *Store) lastSeqLocked() uint64 {
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[len(s.segs)-1].last
}

// Bytes reports the total on-disk size across segments — the
// leanconsensus_journal_segment_bytes gauge feed.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Segments reports the current segment-file count.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Fsyncs reports how many batch fsyncs the store has performed.
func (s *Store) Fsyncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fsyncs
}

// Record implements obslog.Sink: append the batch and make it durable
// with one fsync. Events must arrive in ascending sequence order (the
// follower's contract); an event at or below the store's newest
// sequence is skipped, which is what makes restart wiring idempotent.
func (s *Store) Record(events []obslog.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := s.lastSeqLocked()
	wrote := false
	for i := range events {
		if events[i].Seq <= last {
			continue
		}
		if err := s.appendLocked(&events[i]); err != nil {
			return err
		}
		last = events[i].Seq
		wrote = true
	}
	if !wrote {
		return nil
	}
	return s.syncLocked()
}

// Append writes one event (rotating as needed) without syncing; pair
// with Sync, or use Record for the batch path.
func (s *Store) Append(e obslog.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(&e)
}

func (s *Store) appendLocked(e *obslog.Event) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	frame := int64(headerLen + len(payload) + 1)
	active := s.activeLocked()
	if s.f == nil || (active != nil && active.bytes > 0 && active.bytes+frame > s.opt.SegmentBytes) {
		if err := s.rotateLocked(e.Seq); err != nil {
			return err
		}
		active = s.activeLocked()
	}
	s.scratch = AppendFrame(s.scratch[:0], payload)
	if _, err := s.w.Write(s.scratch); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if active.first == 0 {
		active.first = e.Seq
	}
	active.last = e.Seq
	active.lastTS = e.TS
	active.bytes += frame
	s.total += frame
	return nil
}

// activeLocked returns the active segment's index entry (nil when no
// file is open yet).
func (s *Store) activeLocked() *segment {
	if s.f == nil || len(s.segs) == 0 {
		return nil
	}
	return &s.segs[len(s.segs)-1]
}

// rotateLocked closes the active segment (if any), opens a fresh one
// named by the next record's sequence number, and applies retention.
func (s *Store) rotateLocked(nextSeq uint64) error {
	if s.f != nil {
		if err := s.syncLocked(); err != nil {
			return err
		}
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("store: %v", err)
		}
		s.f, s.w = nil, nil
	} else if len(s.segs) > 0 {
		// Opened over existing history: the newest scanned segment
		// becomes the append target only via a fresh file — reopening and
		// appending in place would work, but a fresh segment keeps every
		// file immutable once another exists after it. Instead, reopen
		// the scanned tail for append when it still has room.
		tail := &s.segs[len(s.segs)-1]
		if tail.bytes+int64(headerLen+1) < s.opt.SegmentBytes {
			f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: %v", err)
			}
			s.f = f
			s.w = bufio.NewWriterSize(f, 1<<16)
			return nil
		}
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%s%020d%s", segPrefix, nextSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, 1<<16)
	s.segs = append(s.segs, segment{path: path})
	s.retainLocked()
	return nil
}

// retainLocked applies count and age retention to closed segments. The
// active segment (the last entry) is never dropped, so retention can
// only trim the front — the contiguity property.
func (s *Store) retainLocked() {
	cutoff := int64(0)
	if s.opt.MaxAge > 0 {
		cutoff = s.opt.now().Add(-s.opt.MaxAge).UnixNano()
	}
	for len(s.segs) > 1 {
		old := s.segs[0]
		drop := len(s.segs) > s.opt.MaxSegments || (cutoff != 0 && old.lastTS != 0 && old.lastTS < cutoff)
		if !drop {
			break
		}
		if err := os.Remove(old.path); err != nil && !os.IsNotExist(err) {
			break // disk trouble: keep history rather than lose track of it
		}
		s.total -= old.bytes
		s.segs = s.segs[1:]
	}
}

// Sync flushes buffered appends and fsyncs the active segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if s.opt.NoSync {
		return nil
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	s.fsyncs++
	if s.opt.OnFsync != nil {
		s.opt.OnFsync(time.Since(start))
	}
	return nil
}

// Replay streams every retained event with Seq > since, oldest first,
// through fn; fn returning an error stops the replay and surfaces it.
// Replay holds the store lock — appends from the persistence follower
// wait — which is the right trade for a query path that runs a few
// times a minute against a producer that batches.
func (s *Store) Replay(since uint64, fn func(obslog.Event) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			return fmt.Errorf("store: %v", err)
		}
	}
	for i := range s.segs {
		seg := &s.segs[i]
		if seg.last <= since && seg.last != 0 {
			continue
		}
		if err := replaySegment(seg.path, seg.bytes, since, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment decodes one verified segment's frames up to size bytes
// (the indexed valid extent) and hands qualifying events to fn.
func replaySegment(path string, size int64, since uint64, fn func(obslog.Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	defer f.Close()
	fr := NewFrameReader(io.LimitReader(f, size), maxRecordBytes)
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: %s: %v", filepath.Base(path), err)
		}
		var e obslog.Event
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("store: %s: %v", filepath.Base(path), err)
		}
		if e.Seq <= since {
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// Tail returns the newest max events (all, when max <= 0), oldest
// first — the startup path that refills a journal ring from disk:
// j.Restore(store.Tail(cap), store.LastSeq()).
func (s *Store) Tail(max int) ([]obslog.Event, error) {
	var out []obslog.Event
	err := s.Replay(0, func(e obslog.Event) error {
		out = append(out, e)
		if max > 0 && len(out) > max {
			out = out[1:] // sliding window; fine for ring-sized maxima
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close flushes, fsyncs, and closes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	err := s.f.Close()
	s.f, s.w = nil, nil
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return nil
}
