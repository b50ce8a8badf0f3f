package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"leanconsensus/internal/obslog"
)

// Event query wire limits.
const (
	// DefaultEventLimit is the page size applied when ?limit= is absent —
	// one full default ring, so pre-query clients see the old contract.
	DefaultEventLimit = 4096
	// MaxEventLimit caps ?limit=; a query never materializes more than
	// this many events in memory at once.
	MaxEventLimit = 65536
)

// eventsResponse is the GET /v1/events query body: matching events
// oldest first, the position to poll from next, and the oldest sequence
// number the service can still serve (ring + store). A requester at
// position since with first > since+1 has a gap: the ring wrapped (or
// retention trimmed) past the events in between — the seq-gap-marked
// contract that replaces backpressure everywhere in the journal.
type eventsResponse struct {
	Events []obslog.Event `json:"events"`
	Next   uint64         `json:"next"`
	First  uint64         `json:"first,omitempty"`
}

// eventQuery is one parsed /v1/events request: a replay position plus
// the predicate grown in PR 9 (kind/id/parent equality, a TS window,
// and a page limit).
type eventQuery struct {
	since         uint64
	kind          string
	id, parent    string
	after, before int64 // Unix-nano bounds; 0 = unset
	limit         int
}

// match reports whether one event satisfies the predicate (the since
// position is handled by the scan, not here).
func (q *eventQuery) match(e *obslog.Event) bool {
	if q.kind != "" && e.Kind.String() != q.kind {
		return false
	}
	if q.id != "" && e.ID != q.id {
		return false
	}
	if q.parent != "" && e.Parent != q.parent {
		return false
	}
	if q.after != 0 && e.TS < q.after {
		return false
	}
	if q.before != 0 && e.TS >= q.before {
		return false
	}
	return true
}

// parseEventQuery decodes the query parameters; every failure is a 400.
// ?kind= is validated against the registry of wire names so a typo
// fails loudly instead of matching nothing forever.
func parseEventQuery(r *http.Request) (eventQuery, error) {
	q := eventQuery{limit: DefaultEventLimit}
	values := r.URL.Query()
	if raw := values.Get("since"); raw != "" {
		since, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return q, fmt.Errorf("server: bad since %q: %v", raw, err)
		}
		q.since = since
	}
	if kind := values.Get("kind"); kind != "" {
		known := false
		for _, name := range obslog.KindNames() {
			if name == kind {
				known = true
				break
			}
		}
		if !known {
			return q, fmt.Errorf("server: unknown event kind %q (known: %s)",
				kind, strings.Join(obslog.KindNames(), ", "))
		}
		q.kind = kind
	}
	q.id = values.Get("id")
	q.parent = values.Get("parent")
	for _, bound := range []struct {
		name string
		dst  *int64
	}{{"after", &q.after}, {"before", &q.before}} {
		if raw := values.Get(bound.name); raw != "" {
			t, err := time.Parse(time.RFC3339Nano, raw)
			if err != nil {
				return q, fmt.Errorf("server: bad %s %q: want RFC3339, e.g. 2026-08-08T12:00:00Z", bound.name, raw)
			}
			*bound.dst = t.UnixNano()
		}
	}
	if raw := values.Get("limit"); raw != "" {
		limit, err := strconv.Atoi(raw)
		if err != nil || limit <= 0 || limit > MaxEventLimit {
			return q, fmt.Errorf("server: limit must be in [1, %d], got %q", MaxEventLimit, raw)
		}
		q.limit = limit
	}
	return q, nil
}

// errPageFull stops a store replay once the page limit is reached.
var errPageFull = errors.New("page full")

// collectEvents evaluates one query against the store (history beyond
// the ring) and the ring (the recent window), in sequence order. It
// returns the matching page, the position to continue from (the last
// matched seq when the page filled, else the journal tip), and the
// oldest sequence number still retained anywhere.
func (s *Server) collectEvents(q eventQuery) (events []obslog.Event, next, first uint64) {
	events = []obslog.Event{}
	ringFirst := s.journal.First()
	first = ringFirst
	if s.store != nil {
		if sf := s.store.FirstSeq(); sf != 0 && (first == 0 || sf < first) {
			first = sf
		}
	}

	// History phase: events that predate the ring window live only on
	// disk. The ring is read second so an event never appears twice —
	// anything at or past ringFirst is the ring's to serve.
	if s.store != nil && (ringFirst == 0 || q.since+1 < ringFirst) {
		err := s.store.Replay(q.since, func(e obslog.Event) error {
			if ringFirst != 0 && e.Seq >= ringFirst {
				return errPageFull // handoff point reached; the ring owns the rest
			}
			if q.match(&e) {
				events = append(events, e)
				if len(events) >= q.limit {
					return errPageFull
				}
			}
			return nil
		})
		if err != nil && !errors.Is(err, errPageFull) {
			// A read failure degrades to the ring window rather than
			// failing the query: the journal's job is to stay observable.
			events = events[:0]
		}
		if len(events) >= q.limit {
			return events, events[len(events)-1].Seq, first
		}
	}

	// Ring phase.
	buf, tip := s.journal.Since(q.since, nil)
	for i := range buf {
		if !q.match(&buf[i]) {
			continue
		}
		events = append(events, buf[i])
		if len(events) >= q.limit {
			return events, buf[i].Seq, first
		}
	}
	next = q.since
	if tip > next {
		next = tip
	}
	if t := s.journal.Seq(); t > next && len(buf) == 0 {
		// Since() leaves the position untouched when the ring holds
		// nothing new; the store may still have advanced the page, so
		// report the true tip as the next poll position.
		next = t
	}
	return events, next, first
}

// handleEvents serves the operations journal three ways:
//
//   - GET /v1/events?since=N[&kind=&id=&parent=&after=&before=&limit=]
//     — one-shot JSON query from position N, evaluated against the
//     on-disk store (when -journal-dir is set) and the in-memory ring,
//     in sequence order. With a store, N=0 replays history from before
//     the current process: durable observability.
//   - GET /v1/events with Accept: text/event-stream — the SSE firehose,
//     from the current tip, optionally filtered by the same predicate.
//   - The same, plus ?since=N — SSE with catch-up: replay from N
//     (store + ring), then follow live. This is the auto-reconnect path
//     clients resume on after a disconnect.
//
// The firehose can never block the workers that emit events: the
// subscription carries wake-up tokens only, and this handler pulls from
// the ring at its own pace. A reader slower than a full ring wrap skips
// the overwritten events (visible as a seq gap) instead of exerting
// backpressure — TestEventsStreamSlowReader pins that down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q, err := parseEventQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wantSSE := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	queried := false
	for _, p := range []string{"since", "kind", "id", "parent", "after", "before", "limit"} {
		if r.URL.Query().Get(p) != "" {
			queried = true
			break
		}
	}
	if queried && !wantSSE {
		events, next, first := s.collectEvents(q)
		writeJSON(w, http.StatusOK, eventsResponse{Events: events, Next: next, First: first})
		return
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "server: response writer cannot stream")
		return
	}
	// Subscribe before the headers go out: a client that acts on the 200
	// (submits a job, say) must see every event its action causes.
	sub := s.journal.Subscribe()
	defer sub.Unsubscribe()
	pos := s.journal.Seq() // firehose semantics: from now on

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Catch-up: an explicit ?since= on the SSE path replays the gap
	// (store + ring) before going live, so a reconnecting client misses
	// nothing the service still retains.
	if r.URL.Query().Get("since") != "" && q.since < pos {
		catchup := q
		for {
			events, next, _ := s.collectEvents(catchup)
			for i := range events {
				if !writeSSEEvent(w, &events[i]) {
					return
				}
			}
			if len(events) > 0 {
				flusher.Flush()
			}
			if next >= pos || next == catchup.since {
				if next > pos {
					pos = next
				}
				break
			}
			catchup.since = next
		}
	}

	var buf []obslog.Event
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.C():
		}
		buf, pos = s.journal.Since(pos, buf[:0])
		sent := false
		for i := range buf {
			if !q.match(&buf[i]) {
				continue
			}
			if !writeSSEEvent(w, &buf[i]) {
				return
			}
			sent = true
		}
		if sent {
			flusher.Flush()
		}
	}
}

// writeSSEEvent frames one journal entry as an SSE "journal" event;
// false means the connection is gone.
func writeSSEEvent(w http.ResponseWriter, e *obslog.Event) bool {
	data, err := json.Marshal(e)
	if err != nil {
		return false
	}
	if _, err := w.Write([]byte("event: journal\ndata: ")); err != nil {
		return false
	}
	if _, err := w.Write(data); err != nil {
		return false
	}
	_, err = w.Write([]byte("\n\n"))
	return err == nil
}
