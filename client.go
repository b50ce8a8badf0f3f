package leanconsensus

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"leanconsensus/internal/obslog"
	"leanconsensus/internal/server"
	"leanconsensus/internal/trace"
)

// CorrelationHeader is the request header carrying a caller-chosen
// correlation ID on POST /v1/jobs and /v1/campaigns. The service stamps
// the value as the Parent of the admitted work's root journal events,
// so a coordinator fanning work out across processes can reconstruct
// the whole tree from the merged event streams.
const CorrelationHeader = "X-Lean-Correlation"

// TenantHeader is the request header naming the submitting tenant on
// POST /v1/jobs and /v1/campaigns. Tenanted submissions are admitted
// under the service's per-tenant fair-share gate: each tenant is
// guaranteed its share of the high-water mark even while another tenant
// saturates the queue, and the tenant label rides on the work's journal
// events and status bodies.
const TenantHeader = "X-Lean-Tenant"

// This file is the typed Go client for the leanserve HTTP service
// (internal/server, cmd/leanserve). Every response body decodes into the
// type the server encodes it from, through the aliases below, so client
// and server share one schema. Four structs stay in this package: JobSpec
// and CampaignSpec carry header-only fields, and Event and EventPage keep
// Kind a plain string. TestClientWireShapes round-trips each of them
// against its server-side counterpart, field by field.

// Job lifecycle states reported by JobStatus.Status.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobSpec describes one batched consensus job: Instances independent
// lean-consensus instances of N processes each, run under the named
// execution model and noise distribution, deterministically from Seed.
// Zero values select server-side defaults; names resolve through the
// server's registries (see Client.Models).
type JobSpec struct {
	Model   string `json:"model,omitempty"`
	Variant string `json:"variant,omitempty"`
	Dist    string `json:"dist,omitempty"`
	// Adversary names an adversarial schedule, optionally parameterized
	// ("antileader:m=8"); see Client.Adversaries for the registry. Models
	// outside the adversary axis reject a named schedule with a 400.
	Adversary string `json:"adversary,omitempty"`
	N         int    `json:"n,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Instances int    `json:"instances"`
	// Correlation, when non-empty, is sent as the X-Lean-Correlation
	// header on submission (the batch uses the first non-empty value):
	// the service stamps it as the Parent of the job's root journal
	// events. It is transport metadata, never part of the request body.
	Correlation string `json:"-"`
	// Tenant, when non-empty, is sent as the X-Lean-Tenant header on
	// submission (the batch uses the first non-empty value): the service
	// admits the batch under that tenant's fair share and labels its
	// journal events. Transport metadata, never part of the request body.
	Tenant string `json:"-"`
}

// The service's response bodies, decoded into the server's own types.
type (
	// JobStatus is one job's lifecycle state, live progress, and — once
	// finished — results (GET /v1/jobs/{id} and the job SSE payload).
	JobStatus = server.JobStatus
	// SpecStatus is one spec's progress within a job: Done of Instances
	// completed, broken down per arena shard, plus the final Result once
	// the spec has run.
	SpecStatus = server.SpecStatus
	// SpecResult aggregates one executed spec. All fields except
	// ElapsedMS and Throughput are pure functions of the spec and replay
	// exactly.
	SpecResult = server.SpecResult
	// JobTraces is the GET /v1/jobs/{id}/trace body: one capture block per
	// spec in submission order, most interesting captures first within
	// each block. Blocks are empty until the spec finishes, and stay empty
	// when the job was submitted without tracing (SubmitJobsTraced).
	JobTraces = server.JobTrace
	// SpecTrace is one spec's flight-recorder captures.
	SpecTrace = server.SpecTrace
	// TraceInstance is one captured execution: identifying fields, the
	// deterministic outcome summary, and the recorded event window
	// (oldest first). Re-running the same (model, key, n, seed, config)
	// replays the exact same events.
	TraceInstance = trace.Instance
	// TraceEvent is one flight-recorder event. Which fields are
	// meaningful depends on Kind, which marshals as its name: "start"
	// carries the adversary's start delay in Delay, "op" the step delay
	// and the value read or written, "round" the new round with the
	// leader in Value (-1 when the model has no global view), "decide"
	// the decided bit, "halt" a process death, and "preempt" the incoming
	// process in Value.
	TraceEvent = trace.Event
	// CampaignStatus is one campaign's lifecycle state, live progress,
	// and — once finished — its deterministic report.
	CampaignStatus = server.CampaignStatus
	// Catalog lists what the service's registries accept in a JobSpec
	// (GET /v1/models).
	Catalog = server.Catalog
	// ModelInfo describes one registered execution model.
	ModelInfo = server.ModelInfo
	// VariantInfo describes one registered algorithm variant; only
	// servable variants are accepted in job specs.
	VariantInfo = server.VariantInfo
	// AdversaryCatalog lists the service's registered adversarial
	// schedules (GET /v1/adversaries).
	AdversaryCatalog = server.AdversaryCatalog
	// AdversaryInfo describes one registered adversarial schedule: its
	// parameter schema and the execution models that can run it.
	AdversaryInfo = server.AdversaryInfo
	// AdversaryParam is one named parameter of an adversarial schedule.
	AdversaryParam = server.AdversaryParam
	// Health is the service's liveness report (GET /healthz): build
	// identity, live work and queue depth, tenants with queued work,
	// runtime vitals, the journal node identity, and JournalDropped,
	// which is nonzero when the durable journal has sequence gaps.
	Health = server.Health
	// EventLabels carries an event's workload axes (model × dist ×
	// adversary × n, the paper's experiment coordinates), its tenant, and
	// the kind-specific Count/Detail payload.
	EventLabels = obslog.Labels
)

// Event is one operations-journal entry in the server's internal/obslog
// wire shape. Kind is a wire-stable name: job.admit, job.start,
// job.done, job.shed, campaign.start, campaign.cell.done,
// campaign.checkpoint, campaign.resume, campaign.done, arena.drain,
// server.request, or journal.truncate. It stays a string, so a client
// decodes kinds a newer service adds instead of rejecting the page. ID
// is the correlation ID of the entity the event is about (job/campaign
// ID, cell key); Parent chains it to its owner — a campaign's cells
// carry the campaign ID here — so a campaign's full lifecycle tree
// reconstructs from the event stream alone.
type Event struct {
	Seq    uint64      `json:"seq"`
	TS     int64       `json:"ts"` // Unix nanoseconds
	Kind   string      `json:"kind"`
	ID     string      `json:"id,omitempty"`
	Parent string      `json:"parent,omitempty"`
	Node   string      `json:"node,omitempty"` // emitting process's identity
	Labels EventLabels `json:"labels"`
}

// EventPage is one journal replay window: events with Seq > the
// requested position, oldest first, and the position to poll from next.
// A gap between the requested position and Events[0].Seq means the
// server's ring wrapped (or its retention trimmed) past this reader.
// First is the oldest sequence number the service can still serve, from
// its on-disk store when the journal is durable, else its ring.
type EventPage struct {
	Events []Event `json:"events"`
	Next   uint64  `json:"next"`
	First  uint64  `json:"first,omitempty"`
}

// EventQuery selects journal events for Client.QueryEvents. The zero
// value replays everything the service retains (up to the server's page
// limit). Kind/ID/Parent are equality filters; After/Before bound the
// event timestamp (half-open: After ≤ TS < Before); Limit caps the page
// (0 selects the server default of 4096, hard max 65536).
type EventQuery struct {
	Since  uint64
	Kind   string
	ID     string
	Parent string
	After  time.Time
	Before time.Time
	Limit  int
}

// encode renders the query string, always including since so the
// request selects the one-shot JSON query mode.
func (q *EventQuery) encode() string {
	v := url.Values{}
	v.Set("since", strconv.FormatUint(q.Since, 10))
	if q.Kind != "" {
		v.Set("kind", q.Kind)
	}
	if q.ID != "" {
		v.Set("id", q.ID)
	}
	if q.Parent != "" {
		v.Set("parent", q.Parent)
	}
	if !q.After.IsZero() {
		v.Set("after", q.After.Format(time.RFC3339Nano))
	}
	if !q.Before.IsZero() {
		v.Set("before", q.Before.Format(time.RFC3339Nano))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	return v.Encode()
}

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("leanserve: HTTP %d: %s", e.StatusCode, e.Message)
}

// OverloadedError is a 429: the service shed the submission. Retry no
// sooner than RetryAfter.
type OverloadedError struct {
	RetryAfter time.Duration
	Message    string
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("leanserve: overloaded (retry after %v): %s", e.RetryAfter, e.Message)
}

// Client is a typed client for a leanserve service. The zero value is
// not usable; construct with NewClient.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval is WaitJob's cadence (default 25ms).
	PollInterval time.Duration
}

// NewClient returns a client for the service rooted at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// httpClient returns the effective transport.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes a 2xx JSON body into out. Non-2xx
// responses become *OverloadedError (429) or *APIError.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return responseError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// get fetches path and decodes its 2xx JSON body into a new T.
func get[T any](ctx context.Context, c *Client, path string) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	var out T
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// responseError converts a non-2xx response into a typed error.
func responseError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return &OverloadedError{RetryAfter: retry, Message: msg}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg}
}

// SubmitJobs submits one batch of job specs and returns the job ID. The
// batch is admitted or shed as a unit: on overload the typed
// *OverloadedError carries the service's Retry-After hint. The request
// body is byte-identical to SubmitJobsTraced with traceK 0.
func (c *Client) SubmitJobs(ctx context.Context, specs ...JobSpec) (string, error) {
	return c.SubmitJobsTraced(ctx, 0, specs...)
}

// SubmitJobsTraced submits one batch of job specs with flight-recorder
// tracing armed: the service captures the traceK most interesting
// instances per arena shard (violations first, then the deepest rounds)
// for each spec, retrievable with JobTrace once the job runs. traceK
// must be within the service's budget cap (64); 0 degrades to an
// untraced SubmitJobs.
func (c *Client) SubmitJobsTraced(ctx context.Context, traceK int, specs ...JobSpec) (string, error) {
	var corr, tenant string
	for _, spec := range specs {
		corr = cmp.Or(corr, spec.Correlation)
		tenant = cmp.Or(tenant, spec.Tenant)
	}
	return c.submit(ctx, jobUnit.route, struct {
		Jobs  []JobSpec `json:"jobs"`
		Trace int       `json:"trace,omitempty"`
	}{Jobs: specs, Trace: traceK}, corr, tenant)
}

// submit POSTs one unit's body to route, with the correlation and
// tenant headers when set, and returns the admitted unit's ID.
func (c *Client) submit(ctx context.Context, route string, body any, corr, tenant string) (string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+route, bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if corr != "" {
		req.Header.Set(CorrelationHeader, corr)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(req, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// JobTrace fetches one job's flight-recorder captures. It answers at any
// lifecycle stage; capture blocks appear as specs finish.
func (c *Client) JobTrace(ctx context.Context, id string) (*JobTraces, error) {
	return get[JobTraces](ctx, c, "/v1/jobs/"+url.PathEscape(id)+"/trace")
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	return get[JobStatus](ctx, c, jobUnit.route+"/"+url.PathEscape(id))
}

// WaitJob polls until the job finishes or ctx expires. A failed job
// returns its final status together with a non-nil error.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	return jobUnit.wait(ctx, c, id)
}

// unitStatus is a unit kind's wire status, which knows itself when it
// is terminal (JobStatus.Finished, CampaignStatus.Finished).
type unitStatus[T any] interface {
	*T
	Finished() bool
}

// unitKind is one kind of unit, a job or a campaign, as the client's
// one wait loop and one stream loop see it: its noun, its route, and
// where its status keeps the ID, the lifecycle state and the error.
type unitKind[T any, P unitStatus[T]] struct {
	noun, route string
	fields      func(*T) (id, status, msg string)
}

var (
	jobUnit = unitKind[JobStatus, *JobStatus]{"job", "/v1/jobs",
		func(st *JobStatus) (string, string, string) { return st.ID, st.Status, st.Error }}
	campaignUnit = unitKind[CampaignStatus, *CampaignStatus]{"campaign", "/v1/campaigns",
		func(st *CampaignStatus) (string, string, string) { return st.ID, st.Status, st.Error }}
)

// failure maps a failed terminal status to an error.
func (k unitKind[T, P]) failure(st *T) error {
	if id, status, msg := k.fields(st); status == JobFailed {
		return fmt.Errorf("leanserve: %s %s failed: %s", k.noun, id, msg)
	}
	return nil
}

// wait polls the unit's status until it finishes or ctx expires.
func (k unitKind[T, P]) wait(ctx context.Context, c *Client, id string) (*T, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for {
		st, err := get[T](ctx, c, k.route+"/"+url.PathEscape(id))
		if err != nil {
			return nil, err
		}
		if P(st).Finished() {
			return st, k.failure(st)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// stream subscribes to the unit's SSE progress stream, calling fn (when
// non-nil) for every progress snapshot, and returns the final status
// carried by the terminal "done" event.
func (k unitKind[T, P]) stream(ctx context.Context, c *Client, id string, fn func(T)) (*T, error) {
	var final *T
	err := c.streamEvents(ctx, k.route+"/"+url.PathEscape(id)+"/stream", func(event string, data []byte) (bool, error) {
		var st T
		if err := json.Unmarshal(data, &st); err != nil {
			return false, fmt.Errorf("leanserve: bad stream payload: %v", err)
		}
		if event == "done" {
			final = &st
			return true, nil
		}
		if fn != nil {
			fn(st)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return final, k.failure(final)
}

// streamEvents subscribes to an SSE endpoint and calls each for every
// event payload; each returning true ends the stream as successfully
// terminal.
func (c *Client) streamEvents(ctx context.Context, path string, each func(event string, data []byte) (bool, error)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return responseError(resp)
	}

	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	// The terminal "done" event carries the whole final status on one
	// data line; for a maximal legal campaign (4096 cells, ~450 bytes of
	// JSON each) that is ~2 MB, so the line cap must sit well above it.
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		case line == "":
			if data.Len() == 0 {
				continue
			}
			done, err := each(event, data.Bytes())
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			data.Reset()
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("leanserve: stream ended without a done event")
}

// StreamJob subscribes to the job's SSE progress stream, calling fn
// (when non-nil) for every progress snapshot, and returns the final
// status carried by the terminal "done" event. A failed job returns its
// status together with a non-nil error, exactly like WaitJob. A job the
// service hands to its successor at a checkpoint-and-stop shutdown
// never finishes on this stream: it ends without "done", and StreamJob
// returns an error and no status.
func (c *Client) StreamJob(ctx context.Context, id string, fn func(JobStatus)) (*JobStatus, error) {
	return jobUnit.stream(ctx, c, id, fn)
}

// SubmitCampaign submits one campaign spec and returns the campaign ID.
// The whole grid is admitted or shed as a unit: on overload the typed
// *OverloadedError carries the service's Retry-After hint, and an
// oversized grid comes back as a 400 *APIError before anything runs.
func (c *Client) SubmitCampaign(ctx context.Context, spec CampaignSpec) (string, error) {
	return c.submit(ctx, campaignUnit.route, spec, spec.Correlation, spec.Tenant)
}

// Campaign fetches one campaign's status (and, once finished, report).
func (c *Client) Campaign(ctx context.Context, id string) (*CampaignStatus, error) {
	return get[CampaignStatus](ctx, c, campaignUnit.route+"/"+url.PathEscape(id))
}

// WaitCampaign polls until the campaign finishes or ctx expires. A
// failed campaign returns its final status together with a non-nil
// error.
func (c *Client) WaitCampaign(ctx context.Context, id string) (*CampaignStatus, error) {
	return campaignUnit.wait(ctx, c, id)
}

// StreamCampaign subscribes to the campaign's SSE progress stream,
// calling fn (when non-nil) for every cell-progress snapshot, and
// returns the final status carried by the terminal "done" event. A
// campaign the service hands to its successor at a checkpoint-and-stop
// shutdown resumes there, not on this stream: it ends without "done",
// and StreamCampaign returns an error and no status.
func (c *Client) StreamCampaign(ctx context.Context, id string, fn func(CampaignStatus)) (*CampaignStatus, error) {
	return campaignUnit.stream(ctx, c, id, fn)
}

// Models fetches the service's registry catalog.
func (c *Client) Models(ctx context.Context) (*Catalog, error) {
	return get[Catalog](ctx, c, "/v1/models")
}

// Adversaries fetches the service's adversary registry catalog.
func (c *Client) Adversaries(ctx context.Context) (*AdversaryCatalog, error) {
	return get[AdversaryCatalog](ctx, c, "/v1/adversaries")
}

// Health fetches the liveness report. Both "ok" (200) and "draining"
// (503) parse without error; inspect Health.Status.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, responseError(resp)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Events replays the service's operations journal from position since
// (0 replays the whole retained window — the on-disk history too, when
// the service runs with a journal directory). Pollers loop on the
// returned Next: page, err := c.Events(ctx, page.Next). Retention is
// finite, so a poller that falls behind sees a sequence gap rather than
// the discarded events; it is Events(ctx, since) with an empty query.
func (c *Client) Events(ctx context.Context, since uint64) (*EventPage, error) {
	return c.QueryEvents(ctx, EventQuery{Since: since})
}

// QueryEvents evaluates one event query against the service's journal —
// the on-disk store first (history beyond the in-memory ring, when the
// service is durable), then the ring — and returns the matching page in
// sequence order. Loop on Next to page through a large result; when the
// page came back full, Next is the last returned seq, else the journal
// tip.
func (c *Client) QueryEvents(ctx context.Context, q EventQuery) (*EventPage, error) {
	return get[EventPage](ctx, c, "/v1/events?"+q.encode())
}

// StreamEvents subscribes to the journal firehose (SSE), calling fn for
// every event from the moment of subscription until ctx is cancelled,
// which is the normal way to end the stream (the returned error is then
// ctx's error).
//
// The stream survives disconnects: on a transport failure the client
// reconnects with capped exponential backoff (250ms doubling to 5s),
// resuming from the last seen sequence number via ?since= so nothing
// the service still retains is missed, and deduplicating any overlap.
// What retention has discarded in the meantime surfaces as a Seq gap,
// exactly like a slow reader's ring wrap — the server never buffers for
// a disconnected consumer. An HTTP-level rejection (*APIError) is
// returned immediately: a service that answers 4xx/5xx is reachable and
// saying no, so retrying cannot help.
func (c *Client) StreamEvents(ctx context.Context, fn func(Event)) error {
	var last uint64
	seen := false // resume only after the first event: before that, "from now" is the contract
	backoff := 250 * time.Millisecond
	for {
		path := "/v1/events"
		if seen {
			path += "?since=" + strconv.FormatUint(last, 10)
		}
		err := c.streamEvents(ctx, path, func(event string, data []byte) (bool, error) {
			var e Event
			if err := json.Unmarshal(data, &e); err != nil {
				return false, err
			}
			if seen && e.Seq <= last {
				return false, nil // replayed overlap after a reconnect
			}
			last, seen = e.Seq, true
			backoff = 250 * time.Millisecond
			fn(e)
			return false, nil
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", responseError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
