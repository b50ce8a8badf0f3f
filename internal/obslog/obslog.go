// Package obslog is the service layer's structured operations journal:
// a fixed-capacity ring of correlated lifecycle events — jobs admitted
// and shed, campaigns started and finished, cells completed, checkpoints
// written, arenas drained, requests served — that makes the *service*
// around the consensus engine observable the way internal/trace makes an
// individual *execution* observable.
//
// The two recorders split the observability problem along the paper's
// own seam. A trace answers "what did this schedule do to this
// instance?" (views, delays, rounds — Sections 3–4 of the paper); the
// journal answers "which workload ran under which model × adversary ×
// noise, when, and on whose behalf?" — the operational datum the noisy
// scheduling model makes scientifically interesting: Aspnes's result is
// a claim about *schedules*, so an operations record that did not label
// every event with its workload axes would be prose, not data.
//
// Design constraints, mirroring internal/trace:
//
//  1. Journaling must never affect outcomes. Events are emitted beside
//     the work, never on its result path; reports, checkpoints, and
//     resume bytes are identical with the journal armed or absent
//     (campaign's TestJournalDoesNotAffectReport pins it).
//  2. A nil journal is free. Every emission site is a nil-check; the
//     arena's 5-allocs-per-instance hot path and the campaign's
//     ~0-alloc batched path are unchanged (bench_test.go holds them).
//  3. Armed appends allocate nothing. Event is a flat struct — the
//     label set is a fixed field block, never a map — so Append is a
//     ring-slot write under a mutex (BenchmarkJournalAppend pins 0
//     allocs/op).
//  4. A slow consumer cannot block a producer. Subscribers get a
//     non-blocking wake-up token, never the events themselves; they
//     read the ring at their own pace with Since, and a reader that
//     stalls past a full ring wrap simply observes a sequence gap
//     (the flight-recorder contract: always the most recent window).
//
// Correlation is a parent chain: the server mints an ID per admitted
// job or campaign, every event carries its own ID plus its parent's,
// and layers below (campaign cells, arena drains) inherit the parent,
// so the full lifecycle tree of a campaign reconstructs from the event
// stream alone — the property the distributed-campaigns coordinator
// (ROADMAP) will lean on when one sweep spans many workers.
package obslog

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// DefaultCapacity is the ring size New applies when the caller passes a
// non-positive capacity. Lifecycle events are coarse (one per cell, not
// per instance), so 4096 holds hours of steady service.
const DefaultCapacity = 4096

// Kind classifies one journal event. The wire names are stable: clients
// (cmd/leantop, the typed Client) switch on them.
type Kind uint8

const (
	// KindJobAdmit is a job batch passing admission (202): ID is the
	// minted job correlation ID, Count the admitted instance total.
	KindJobAdmit Kind = iota + 1
	// KindJobStart is a job beginning execution (it may have waited in
	// the queued state behind the concurrency semaphore).
	KindJobStart
	// KindJobDone is a job reaching a terminal state: Detail is "ok" or
	// the failure message.
	KindJobDone
	// KindJobShed is an admission rejection (429): no ID is ever minted,
	// Count carries the shed instance total, Detail the kind of
	// submission ("job" or "campaign").
	KindJobShed
	// KindCampaignStart is a campaign passing admission: ID is the
	// campaign correlation ID, Count the grid's instance total.
	KindCampaignStart
	// KindCellDone is one completed campaign cell: ID is the cell key,
	// Parent the campaign correlation ID, the axis labels carry the
	// cell's model/dist/adversary/n, Count its repetitions.
	KindCellDone
	// KindCheckpoint is a manifest write: Count is the completed-cell
	// count the manifest now holds, Detail the manifest path.
	KindCheckpoint
	// KindResume is a checkpoint restore at campaign start: Count is the
	// number of cells skipped.
	KindResume
	// KindCampaignDone is a campaign reaching a terminal state: Detail
	// is "ok" or the failure message.
	KindCampaignDone
	// KindArenaDrain is a unit's arena cells having drained (once per job
	// spec, once per campaign run): Parent is the unit's correlation ID,
	// Count the instances its cells ran.
	KindArenaDrain
	// KindServerRequest is one served HTTP request: Detail is
	// "METHOD /path", Count the response status code.
	KindServerRequest
	// KindJournalTruncate is a torn segment tail discarded while opening
	// the on-disk store (internal/obslog/store): Count is the byte count
	// dropped, Detail the segment file. Exactly one is journaled per
	// truncating open — the durable record that a crash cost something.
	KindJournalTruncate

	kindMax
)

// kindNames maps kinds to their wire names.
var kindNames = [...]string{
	KindJobAdmit:        "job.admit",
	KindJobStart:        "job.start",
	KindJobDone:         "job.done",
	KindJobShed:         "job.shed",
	KindCampaignStart:   "campaign.start",
	KindCellDone:        "campaign.cell.done",
	KindCheckpoint:      "campaign.checkpoint",
	KindResume:          "campaign.resume",
	KindCampaignDone:    "campaign.done",
	KindArenaDrain:      "arena.drain",
	KindServerRequest:   "server.request",
	KindJournalTruncate: "journal.truncate",
}

// KindNames lists every wire-stable kind name, in kind order. Query
// surfaces (the server's ?kind= filter, leantop -kind) validate against
// it so a typo fails loudly instead of matching nothing forever.
func KindNames() []string {
	out := make([]string, 0, int(kindMax)-1)
	for k := Kind(1); k < kindMax; k++ {
		out = append(out, kindNames[k])
	}
	return out
}

// String renders the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a wire name back into a kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i := range kindNames {
		if kindNames[i] == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obslog: unknown event kind %q", s)
}

// Labels is an event's fixed label block: the workload axes the paper
// makes first-class (model × dist × adversary × n) plus a kind-specific
// count and detail. It is a flat struct, not a map, so attaching labels
// to an event never allocates.
type Labels struct {
	// Model, Dist, and Adversary are the canonical registry names of the
	// workload's axes ("" when the event has no workload).
	Model     string `json:"model,omitempty"`
	Dist      string `json:"dist,omitempty"`
	Adversary string `json:"adversary,omitempty"`
	// N is the per-instance process count (0 when not applicable).
	N int `json:"n,omitempty"`
	// Tenant is the admission bucket the work was accounted against
	// (X-Lean-Tenant; "" for untenanted work). Set on admission-side
	// events — job.admit, job.shed, campaign.start — so the journal can
	// answer "who owns the backlog" without joining against job tables.
	Tenant string `json:"tenant,omitempty"`
	// Count is the kind-specific magnitude: instances admitted or shed,
	// repetitions in a cell, proposals drained, an HTTP status.
	Count int64 `json:"count,omitempty"`
	// Detail is the kind-specific short string: an outcome ("ok" or an
	// error), a manifest path, a "METHOD /path".
	Detail string `json:"detail,omitempty"`
}

// Event is one journal entry. The struct is flat and fixed-size so the
// ring is a single allocation and appends are slot writes.
type Event struct {
	// Seq is the journal-assigned sequence number, strictly increasing
	// from 1; consumers replay from a position with Since(seq).
	Seq uint64 `json:"seq"`
	// TS is the event's wall-clock time in Unix nanoseconds. It is the
	// journal's only nondeterministic field, which is why journal
	// content never feeds reports or checkpoints.
	TS int64 `json:"ts"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// ID is the correlation ID of the entity the event is about: a job
	// or campaign ID, a cell key, a request ID.
	ID string `json:"id,omitempty"`
	// Parent is the correlation ID this event chains to ("" at a root):
	// cells chain to their campaign, arena drains to their owner.
	Parent string `json:"parent,omitempty"`
	// Node identifies the process that emitted the event (NodeID). Events
	// replayed from the on-disk store keep the node that wrote them, so a
	// journal spanning restarts — or, eventually, a fleet — still says
	// which process did what.
	Node string `json:"node,omitempty"`
	// Labels carries the workload axes and kind-specific payload.
	Labels Labels `json:"labels"`
}

// Journal is a fixed-capacity ring of events, safe for concurrent use.
// The zero value is not usable; construct with New. A nil *Journal is a
// valid "journaling off" value: Append on nil is a no-op, so emission
// sites need no separate flag.
type Journal struct {
	mu    sync.Mutex
	buf   []Event
	seq   uint64 // last assigned sequence number
	first uint64 // oldest sequence number still in the ring (0 = empty)
	node  string // per-process identity stamped on every appended event
	subs  []*Sub

	now func() int64 // stamping hook; tests pin it
}

// New returns a journal with the given ring capacity (DefaultCapacity
// when non-positive). The ring is the journal's only steady-state
// allocation. Every appended event is stamped with this process's
// NodeID; SetNode overrides it (tests pin it to "").
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{
		buf:  make([]Event, capacity),
		node: NodeID(),
		now:  func() int64 { return time.Now().UnixNano() },
	}
}

// SetNode overrides the node identity stamped on appended events.
func (j *Journal) SetNode(node string) {
	j.mu.Lock()
	j.node = node
	j.mu.Unlock()
}

// Node reports the identity stamped on appended events.
func (j *Journal) Node() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node
}

// Cap reports the ring capacity.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return len(j.buf)
}

// Seq reports the sequence number of the most recent event (0 when the
// journal is empty or nil).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Append records one event and wakes subscribers. It assigns the
// sequence number and timestamp, never allocates, and never blocks on a
// slow consumer: subscribers receive a non-blocking wake-up token and
// read the ring themselves. Append on a nil journal is a no-op, which is
// what makes a disabled journal free at every emission site.
func (j *Journal) Append(kind Kind, id, parent string, labels Labels) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	j.buf[int((j.seq-1)%uint64(len(j.buf)))] = Event{
		Seq:    j.seq,
		TS:     j.now(),
		Kind:   kind,
		ID:     id,
		Parent: parent,
		Node:   j.node,
		Labels: labels,
	}
	if j.first == 0 {
		j.first = j.seq
	}
	if j.seq-j.first >= uint64(len(j.buf)) {
		j.first = j.seq - uint64(len(j.buf)) + 1
	}
	subs := j.subs
	j.mu.Unlock()
	for _, s := range subs {
		select {
		case s.wake <- struct{}{}:
		default: // the subscriber already has a pending wake-up
		}
	}
}

// Since appends to dst every held event with Seq > seq, oldest first,
// and returns the extended slice together with the sequence number of
// the newest event appended (= seq when nothing qualified). Events older
// than the ring window are gone — a consumer that detects a gap between
// its position and the first returned Seq knows the ring lapped it.
func (j *Journal) Since(seq uint64, dst []Event) ([]Event, uint64) {
	if j == nil {
		return dst, seq
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seq <= seq || j.first == 0 {
		return dst, seq
	}
	first := j.first
	if seq+1 > first {
		first = seq + 1
	}
	n := len(dst)
	for s := first; s <= j.seq; s++ {
		// A restored ring (Restore) may have holes where the previous
		// process's ring wrapped past its persistence follower; skip the
		// slots whose occupant is not the sequence number being walked.
		if e := &j.buf[int((s-1)%uint64(len(j.buf)))]; e.Seq == s {
			dst = append(dst, *e)
		}
	}
	if len(dst) == n {
		return dst, seq
	}
	return dst, j.seq
}

// First reports the oldest sequence number the ring still holds (0 when
// the journal is empty or nil). A reader positioned before First-1 has
// been lapped: the events in between are gone from the ring (though the
// on-disk store, when armed, may still hold them).
func (j *Journal) First() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.first
}

// Restore preloads the ring with history replayed from a persistent
// store and advances the sequence counter to lastSeq, so events appended
// after a restart continue the pre-restart numbering instead of
// restarting at 1 — the property that makes ?since= positions durable
// across process lifetimes. Only the newest ring-capacity events are
// kept (the store retains the rest); events must arrive in ascending
// Seq order. Restore is meant for startup, before the journal has
// subscribers or appenders.
func (j *Journal) Restore(events []Event, lastSeq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(events) > len(j.buf) {
		events = events[len(events)-len(j.buf):]
	}
	for _, e := range events {
		j.buf[int((e.Seq-1)%uint64(len(j.buf)))] = e
		if j.first == 0 || e.Seq < j.first {
			j.first = e.Seq
		}
		if e.Seq > j.seq {
			j.seq = e.Seq
		}
	}
	if lastSeq > j.seq {
		j.seq = lastSeq
	}
}

// Sub is one subscriber's wake-up handle. Consumers wait on C, then
// drain the ring with Since from their own position; the journal never
// sends events through the subscription, so a stalled consumer costs the
// producers nothing.
type Sub struct {
	j    *Journal
	wake chan struct{}
}

// Subscribe registers a wake-up subscription. The returned Sub's channel
// receives one token per quiet-to-active transition (tokens coalesce —
// it is a level trigger, not an event count). Unsubscribe when done.
func (j *Journal) Subscribe() *Sub {
	s := &Sub{j: j, wake: make(chan struct{}, 1)}
	j.mu.Lock()
	// Copy-on-write keeps Append's subscriber walk lock-free after the
	// snapshot: Append reads the slice it captured under the lock.
	subs := make([]*Sub, 0, len(j.subs)+1)
	subs = append(subs, j.subs...)
	j.subs = append(subs, s)
	j.mu.Unlock()
	return s
}

// C is the wake-up channel: one buffered token, coalescing.
func (s *Sub) C() <-chan struct{} { return s.wake }

// Unsubscribe removes the subscription; pending tokens remain readable.
func (s *Sub) Unsubscribe() {
	j := s.j
	j.mu.Lock()
	subs := make([]*Sub, 0, len(j.subs))
	for _, o := range j.subs {
		if o != s {
			subs = append(subs, o)
		}
	}
	j.subs = subs
	j.mu.Unlock()
}
