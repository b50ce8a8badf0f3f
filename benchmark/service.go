package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus"
	"leanconsensus/internal/server"
)

// The fixed pool shape of every server, arena and local campaign the
// benchmark runs: set explicitly, not derived from GOMAXPROCS, so the
// load shape is the same on any host.
const (
	shards  = 2
	workers = 1
)

// serverConfig is the fixed server shape; one job or campaign executes at
// a time.
func serverConfig() server.Config {
	return server.Config{Shards: shards, Workers: workers, MaxConcurrentJobs: 1}
}

// doneTimeout bounds the wait for one unit's terminal event; a unit that
// takes longer counts as failed.
const doneTimeout = 30 * time.Second

// service is one booted in-process server on loopback, the benchmark's
// client for it, and the client's journal subscription.
type service struct {
	srv       *server.Server
	hs        *http.Server
	served    chan struct{} // closed when hs.Serve returns
	transport *http.Transport
	client    *leanconsensus.Client
	events    *eventTable
	bytes     *byteCounter // nil when untraced

	stopStream context.CancelFunc
	streamDone chan struct{}
}

// boot starts a server with the workload's configuration, subscribes to
// its journal, and returns once the subscription is known to be live.
// One transport carries every request with at most two connections: the
// journal stream holds one, and every other request shares the other.
func boot(w *workload, dir string, traced bool) (*service, error) {
	cfg := serverConfig()
	if w.durable {
		cfg.StateDir = filepath.Join(dir, "state")
		cfg.JournalDir = filepath.Join(dir, "journal")
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:        srv,
		hs:         &http.Server{Handler: srv.Handler()},
		served:     make(chan struct{}),
		transport:  &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		events:     newEventTable(traced),
		streamDone: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	var rt http.RoundTripper = s.transport
	if traced {
		s.bytes = &byteCounter{next: s.transport}
		rt = s.bytes
	}
	s.client = &leanconsensus.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: rt},
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.stopStream = cancel
	go func() {
		defer close(s.streamDone)
		s.client.StreamEvents(ctx, s.events.observe) //nolint:errcheck // ends with ctx's error
	}()
	if err := s.awaitStream(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// awaitStream repeats a journaled request until its server.request event
// arrives on the stream. A single request could race the subscription —
// its event journaled before the stream attached — and the wait would
// never end.
func (s *service) awaitStream() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.client.Models(context.Background()); err != nil {
			return fmt.Errorf("readiness probe: %w", err)
		}
		select {
		case <-s.events.ready:
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
	return errors.New("journal stream not live after 10s")
}

// close stops the stream, the listener and the server, and waits for
// each to end.
func (s *service) close() error {
	s.stopStream()
	<-s.streamDone
	s.hs.Close() //nolint:errcheck // the listener's close error is not actionable here
	<-s.served
	s.transport.CloseIdleConnections()
	return s.srv.Close()
}

// doneEvent is one job.done or campaign.done as the stream delivered it.
type doneEvent struct {
	ts     int64 // journal timestamp
	recv   int64 // wall time the client received it
	detail string
}

// stageTimes are the journal timestamps of one unit's lifecycle events.
type stageTimes struct {
	admit, start, firstCell int64
}

// eventTable consumes the journal stream: it signals readiness, hands
// each terminal event to the goroutine waiting for it, and — when traced —
// keeps every unit's stage timestamps.
type eventTable struct {
	ready     chan struct{}
	readyOnce sync.Once

	mu      sync.Mutex
	waiters map[string]chan doneEvent
	early   map[string]doneEvent // terminal events that beat their waiter
	stages  map[string]*stageTimes
	count   int64
	sheds   int64
}

func newEventTable(traced bool) *eventTable {
	t := &eventTable{
		ready:   make(chan struct{}),
		waiters: make(map[string]chan doneEvent),
		early:   make(map[string]doneEvent),
	}
	if traced {
		t.stages = make(map[string]*stageTimes)
	}
	return t
}

// observe is the stream callback.
func (t *eventTable) observe(e leanconsensus.Event) {
	recv := time.Now().UnixNano()
	if e.Kind == "server.request" && e.Labels.Detail == "GET /v1/models" {
		t.readyOnce.Do(func() { close(t.ready) })
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	switch e.Kind {
	case "job.shed":
		t.sheds++
	case "job.admit", "campaign.start":
		if st := t.stage(e.ID); st != nil {
			st.admit = e.TS
		}
	case "job.start":
		if st := t.stage(e.ID); st != nil {
			st.start = e.TS
		}
	case "campaign.cell.done":
		if st := t.stage(e.Parent); st != nil && st.firstCell == 0 {
			st.firstCell = e.TS
		}
	case "job.done", "campaign.done":
		d := doneEvent{ts: e.TS, recv: recv, detail: e.Labels.Detail}
		if ch, ok := t.waiters[e.ID]; ok {
			ch <- d
			delete(t.waiters, e.ID)
		} else {
			t.early[e.ID] = d
		}
	}
}

// stage returns id's timestamps, creating them, or nil when untraced;
// call with t.mu held.
func (t *eventTable) stage(id string) *stageTimes {
	if t.stages == nil {
		return nil
	}
	st := t.stages[id]
	if st == nil {
		st = &stageTimes{}
		t.stages[id] = st
	}
	return st
}

// wait returns a channel that receives id's terminal event.
func (t *eventTable) wait(id string) <-chan doneEvent {
	ch := make(chan doneEvent, 1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if d, ok := t.early[id]; ok {
		ch <- d
		delete(t.early, id)
	} else {
		t.waiters[id] = ch
	}
	return ch
}

// forget drops a waiter that gave up.
func (t *eventTable) forget(id string) {
	t.mu.Lock()
	delete(t.waiters, id)
	t.mu.Unlock()
}

// stagesOf returns a copy of id's stage timestamps.
func (t *eventTable) stagesOf(id string) stageTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stages[id]; st != nil {
		return *st
	}
	return stageTimes{}
}

// counts returns the events received so far and the job.shed among them.
func (t *eventTable) counts() (events, sheds int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count, t.sheds
}

// awaitDone waits for id's terminal event.
func (s *service) awaitDone(id string) (doneEvent, error) {
	timer := time.NewTimer(doneTimeout)
	defer timer.Stop()
	select {
	case d := <-s.events.wait(id):
		if d.detail != "ok" {
			return d, fmt.Errorf("%s failed: %s", id, d.detail)
		}
		return d, nil
	case <-timer.C:
		s.events.forget(id)
		return doneEvent{}, fmt.Errorf("%s: no terminal event within %v", id, doneTimeout)
	}
}

// byteCounter is a RoundTripper that counts the response bytes of unit
// fetches (GET /v1/jobs/{id}, GET /v1/campaigns/{id}).
type byteCounter struct {
	next    http.RoundTripper
	bytes   atomic.Int64
	fetches atomic.Int64
}

func (b *byteCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := b.next.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !isFetch(req.URL.Path) {
		return resp, err
	}
	b.fetches.Add(1)
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &b.bytes}
	return resp, nil
}

// isFetch matches the unit status paths, not their streams or traces.
func isFetch(path string) bool {
	for _, prefix := range []string{"/v1/jobs/", "/v1/campaigns/"} {
		if rest, ok := strings.CutPrefix(path, prefix); ok && !strings.Contains(rest, "/") {
			return true
		}
	}
	return false
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}
