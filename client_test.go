package leanconsensus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/server"
)

// TestStreamEventsReconnects pins the client's auto-reconnect contract
// against a scripted server: the first subscription is the plain
// firehose, a dropped connection is retried, and the retry resumes with
// ?since=<last seen seq> so the catch-up replay dedups instead of
// re-delivering.
func TestStreamEventsReconnects(t *testing.T) {
	var conns atomic.Int64
	writeEvent := func(w http.ResponseWriter, seq int) {
		fmt.Fprintf(w, "event: journal\ndata: {\"seq\":%d,\"ts\":1,\"kind\":\"job.admit\",\"labels\":{}}\n\n", seq)
		w.(http.Flusher).Flush()
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch conns.Add(1) {
		case 1:
			if r.URL.Query().Has("since") {
				t.Error("first subscription sent ?since=: the firehose starts from now")
			}
			w.Header().Set("Content-Type", "text/event-stream")
			writeEvent(w, 1)
			writeEvent(w, 2)
			// Connection drops here (handler returns): the client must
			// treat it as transient and reconnect.
		default:
			if got := r.URL.Query().Get("since"); got != "2" {
				t.Errorf("reconnect since = %q, want 2 (resume from last seen)", got)
			}
			w.Header().Set("Content-Type", "text/event-stream")
			writeEvent(w, 2) // catch-up overlap: must be deduplicated
			writeEvent(w, 3)
			<-r.Context().Done()
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []uint64
	errc := make(chan error, 1)
	go func() {
		errc <- leanconsensus.NewClient(ts.URL).StreamEvents(ctx, func(e leanconsensus.Event) {
			got = append(got, e.Seq)
			if e.Seq == 3 {
				cancel()
			}
		})
	}()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("StreamEvents = %v, want context.Canceled", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("stream never completed")
	}
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v (overlap deduplicated)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	if conns.Load() < 2 {
		t.Fatalf("%d connections, want a reconnect", conns.Load())
	}
}

// TestStreamEventsStopsOnAPIError: an HTTP-level rejection is terminal,
// not a retry loop against a server that is saying no.
func TestStreamEventsStopsOnAPIError(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		http.Error(w, `{"error":"journal disabled"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := leanconsensus.NewClient(ts.URL).StreamEvents(ctx, func(leanconsensus.Event) {})
	var apiErr *leanconsensus.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("StreamEvents = %v, want the 404 APIError", err)
	}
	if conns.Load() != 1 {
		t.Fatalf("%d connections, want no retry after an API rejection", conns.Load())
	}
}

// asAPIError is errors.As without the import dance in assertions.
func asAPIError(err error, target **leanconsensus.APIError) bool {
	for err != nil {
		if e, ok := err.(*leanconsensus.APIError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestEventQueryRoundTrip checks the typed query encodes exactly what
// the server parses.
func TestEventQueryRoundTrip(t *testing.T) {
	var gotURL string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotURL = r.URL.String()
		fmt.Fprint(w, `{"events":[],"next":9,"first":4}`)
	}))
	defer ts.Close()
	after := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	page, err := leanconsensus.NewClient(ts.URL).QueryEvents(context.Background(), leanconsensus.EventQuery{
		Since: 7, Kind: "job.done", ID: "j-000001", Parent: "c-000001",
		After: after, Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := http.NewRequest(http.MethodGet, gotURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := q.URL.Query()
	if v.Get("since") != "7" || v.Get("kind") != "job.done" || v.Get("id") != "j-000001" ||
		v.Get("parent") != "c-000001" || v.Get("limit") != "5" {
		t.Fatalf("query = %s", gotURL)
	}
	if ts, err := time.Parse(time.RFC3339Nano, v.Get("after")); err != nil || !ts.Equal(after) {
		t.Fatalf("after = %q (%v)", v.Get("after"), err)
	}
	if v.Has("before") {
		t.Fatalf("zero Before leaked into the query: %s", gotURL)
	}
	if page.Next != 9 || page.First != 4 {
		t.Fatalf("page = %+v, want next 9 first 4", page)
	}
}

// TestClientWireShapes guards the four structs the client keeps of its
// own against their server-side counterparts. A value with every field
// non-zero must cross from one to the other with no unknown field and
// re-encode to the same bytes. Fields are filled by reflection, so a
// field added later is covered without editing this test. The request
// specs cross both ways: the server rejects unknown fields in a body,
// and the client must be able to send every field the server accepts.
func TestClientWireShapes(t *testing.T) {
	for _, c := range []struct {
		name     string
		from, to any
	}{
		{"obslog.Event to Event", new(obslog.Event), new(leanconsensus.Event)},
		{"engine.JobSpec to JobSpec", new(engine.JobSpec), new(leanconsensus.JobSpec)},
		{"JobSpec to engine.JobSpec", new(leanconsensus.JobSpec), new(engine.JobSpec)},
		{"campaign.Spec to CampaignSpec", new(campaign.Spec), new(leanconsensus.CampaignSpec)},
		{"CampaignSpec to campaign.Spec", new(leanconsensus.CampaignSpec), new(campaign.Spec)},
	} {
		next := 0
		fillNonZero(t, reflect.ValueOf(c.from).Elem(), "", &next)
		b, err := json.Marshal(c.from)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, c.name, b, c.to)
	}

	// A live page from a durable journal, so that first is present.
	srv, err := server.New(server.Config{Shards: 1, Workers: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	ctx := context.Background()
	client := leanconsensus.NewClient(ts.URL)
	id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Seed: 1, Instances: 4, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(ctx, id); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/events?since=0")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	if err := json.Compact(&page, body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(page.Bytes(), []byte(`"first":`)) {
		t.Fatalf("durable event page has no first: %s", page.Bytes())
	}
	requireSameBytes(t, "GET /v1/events to EventPage", page.Bytes(), new(leanconsensus.EventPage))
}

// fillNonZero sets every exported field reachable from v to a distinct
// non-zero value: strings to their field name, numbers to a running
// count, bools to true, and slices to one filled element. Any other
// kind fails the test, so a field of a new shape cannot go unfilled.
func fillNonZero(t *testing.T, v reflect.Value, name string, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillNonZero(t, v.Field(i), f.Name, next)
			}
		}
	case reflect.String:
		v.SetString(name)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), name, next)
	default:
		t.Fatalf("field %s: cannot fill a %s", name, v.Kind())
	}
}

// requireSameBytes decodes b into dst, rejecting unknown fields, and
// requires dst to re-encode to exactly b.
func requireSameBytes(t *testing.T, name string, b []byte, dst any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		t.Fatalf("%s: %v in %s", name, err, b)
	}
	got, err := json.Marshal(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Errorf("%s: re-encoded bytes differ\n got %s\nwant %s", name, got, b)
	}
}
