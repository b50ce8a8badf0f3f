package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/server"
)

// TestJobTraceEndpoint drives the flight-recorder surface end to end
// through the typed client: a traced submit, capture retrieval, replay
// determinism across two identical jobs, and the off-by-default and
// validation paths.
func TestJobTraceEndpoint(t *testing.T) {
	_, client := newTestServer(t, server.Config{Shards: 2, Workers: 2})
	ctx := context.Background()
	spec := leanconsensus.JobSpec{
		Model: "sched", Dist: "exponential", Adversary: "antileader:m=8",
		N: 8, Seed: 42, Instances: 200,
	}

	submitTraced := func() *leanconsensus.JobTraces {
		t.Helper()
		id, err := client.SubmitJobsTraced(ctx, 2, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
		jt, err := client.JobTrace(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return jt
	}

	jt := submitTraced()
	if jt.Status != leanconsensus.JobDone {
		t.Fatalf("trace status %q, want done", jt.Status)
	}
	if len(jt.Specs) != 1 {
		t.Fatalf("trace has %d spec blocks, want 1", len(jt.Specs))
	}
	captures := jt.Specs[0].Trace
	if len(captures) == 0 {
		t.Fatal("traced job returned no captures")
	}
	if len(captures) > 2*2 {
		t.Fatalf("captured %d instances, per-shard budget 2 on 2 shards allows 4", len(captures))
	}
	for _, inst := range captures {
		if inst.Model != "sched" || inst.N != 8 {
			t.Fatalf("capture has wrong identity: %+v", inst)
		}
		if len(inst.Events) == 0 {
			t.Fatalf("capture %q has no events", inst.Key)
		}
		for _, ev := range inst.Events {
			switch ev.Kind.String() {
			case "start", "op", "round", "decide", "halt", "preempt":
			default:
				t.Fatalf("capture %q has unknown event kind %q", inst.Key, ev.Kind)
			}
		}
	}

	// Captures are pure functions of the spec: a second identical job
	// returns byte-identical trace blocks.
	jt2 := submitTraced()
	b1, _ := json.Marshal(jt.Specs[0].Trace)
	b2, _ := json.Marshal(jt2.Specs[0].Trace)
	if string(b1) != string(b2) {
		t.Fatalf("traces differ across identical jobs:\n%s\n---\n%s", b1, b2)
	}

	// An untraced job answers with empty capture blocks.
	id, err := client.SubmitJobs(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(ctx, id); err != nil {
		t.Fatal(err)
	}
	plain, err := client.JobTrace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Specs) != 1 || len(plain.Specs[0].Trace) != 0 {
		t.Fatalf("untraced job returned captures: %+v", plain.Specs)
	}

	// Unknown job: 404. Oversized budget: 400 before anything runs.
	var apiErr *leanconsensus.APIError
	if _, err := client.JobTrace(ctx, "j-999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace error = %v, want 404", err)
	}
	if _, err := client.SubmitJobsTraced(ctx, server.MaxTraceK+1, spec); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized trace budget error = %v, want 400", err)
	}
}

// oneShotListener hands http.Serve exactly one pre-made connection.
type oneShotListener struct {
	mu   sync.Mutex
	conn net.Conn
}

func (l *oneShotListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return nil, net.ErrClosed
	}
	c := l.conn
	l.conn = nil
	return c, nil
}

func (l *oneShotListener) Close() error   { return nil }
func (l *oneShotListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestStalledStreamReaderDoesNotBlock proves the observability surface
// cannot back-pressure the execution path: an SSE subscriber that never
// reads — attached over an unbuffered in-memory pipe, so the handler's
// very first write blocks — must not stop the job from finishing, nor
// the trace endpoint from answering. The stream handler blocks holding
// nothing: snapshots are taken (and locks released) before each write.
func TestStalledStreamReaderDoesNotBlock(t *testing.T) {
	srv, client := newTestServer(t, server.Config{Shards: 2, Workers: 2})
	ctx := context.Background()

	id, err := client.SubmitJobsTraced(ctx, 2, leanconsensus.JobSpec{
		Model: "sched", Dist: "exponential", N: 8, Seed: 7, Instances: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Attach the stalled subscriber. net.Pipe is synchronous: every
	// handler write blocks until the client side reads, and it never does.
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	stalled := &http.Server{Handler: srv.Handler()}
	defer stalled.Close()
	go stalled.Serve(&oneShotListener{conn: srvConn})                                                                       //nolint:errcheck // returns net.ErrClosed after the one conn
	go io.WriteString(cliConn, "GET /v1/jobs/"+id+"/stream HTTP/1.1\r\nHost: stalled\r\nAccept: text/event-stream\r\n\r\n") //nolint:errcheck

	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	st, err := client.WaitJob(waitCtx, id)
	if err != nil {
		t.Fatalf("job did not finish under a stalled stream reader: %v", err)
	}
	if st.Status != leanconsensus.JobDone {
		t.Fatalf("job status %q, want done", st.Status)
	}

	// The trace endpoint answers while the stream handler is still stuck.
	jt, err := client.JobTrace(ctx, id)
	if err != nil {
		t.Fatalf("trace endpoint blocked by a stalled stream reader: %v", err)
	}
	if len(jt.Specs) != 1 || len(jt.Specs[0].Trace) == 0 {
		t.Fatalf("traced job returned no captures: %+v", jt.Specs)
	}
}
