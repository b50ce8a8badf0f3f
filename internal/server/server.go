// Package server is the network-facing layer of the repository: an
// HTTP/JSON consensus service over the sharded arena, with batching,
// admission control, and live telemetry.
//
// A client POSTs a batch of job specs to /v1/jobs, or a campaign grid to
// /v1/campaigns; each spec names an execution model, noise distribution,
// instance shape, and seed, and is validated through the engine's
// model/variant registries and the distribution registry before anything
// runs. Both kinds are admitted units in one table with one lifecycle —
// one submit handler, one runner (an execution slot, then the run), one
// terminal save, one eviction — and differ only in a small per-kind part
// (unit.go): a job runs its specs as arena cells, a campaign its grid,
// both on the server's one arena.
// Clients poll GET /v1/{jobs,campaigns}/{id}, or subscribe to
// GET /v1/{jobs,campaigns}/{id}/stream for progress as server-sent
// events. GET /v1/models lists everything the registries know, /healthz
// reports liveness, and /metrics exposes the internal/metrics registry
// in Prometheus text format.
//
// Backpressure is explicit and two-layered. Inside a unit, a bounded
// window of cells is in flight, and the arena has one Shards × Workers
// pool per execution slot. Across units, the server tracks
// admitted-but-unfinished instances and sheds load once that queue
// depth crosses the configured high-water mark: the POST is rejected
// with 429 and a Retry-After estimate instead of being buffered without
// bound. Shutdown is a drain, not a drop: Close stops admissions, waits
// for every running unit, and then closes the arena.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/buildinfo"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/metrics"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/obslog/store"
)

// CorrelationHeader is the request header a coordinating process sets
// on POST /v1/jobs and POST /v1/campaigns to chain the admitted work's
// journal events to its own correlation ID. This is the cross-process
// half of the correlation story: a future distributed-campaign
// coordinator mints c-%06d, stamps it here, and every worker-side
// job/cell event parents into it — reconstructible from the merged
// event streams alone, exactly as single-process trees are today.
const CorrelationHeader = "X-Lean-Correlation"

// maxCorrelationLen bounds the accepted header value; anything longer
// (or containing control characters) is a 400, not a silent trim —
// correlation IDs that mutate in flight are worse than none.
const maxCorrelationLen = 128

// Defaults applied by New.
const (
	// DefaultHighWater is the queued-instance high-water mark: POSTs that
	// would push the backlog past it are shed with 429.
	DefaultHighWater = 1 << 18
	// DefaultMaxBatch is the maximum specs per POST /v1/jobs.
	DefaultMaxBatch = 64
	// DefaultMaxJobsKept bounds the finished-job history; the oldest done
	// jobs are evicted beyond it.
	DefaultMaxJobsKept = 1024
)

// Config describes a server.
type Config struct {
	// Shards and Workers set the pool each executing job or campaign
	// gets (defaults arena.DefaultShards / arena.DefaultWorkers); the
	// server's one arena has Shards × Workers × MaxConcurrentJobs workers.
	Shards, Workers int
	// HighWater is the queued-instance count past which POST /v1/jobs is
	// rejected with 429 (default DefaultHighWater). A batch that arrives at
	// an empty queue is always admitted, so one legal batch can never be
	// unschedulable.
	HighWater int64
	// MaxBatch caps the specs in one POST (default DefaultMaxBatch).
	MaxBatch int
	// MaxConcurrentJobs bounds jobs executing at once; further admitted
	// jobs wait in "queued" state (default GOMAXPROCS/2, min 1).
	MaxConcurrentJobs int
	// MaxJobsKept bounds the jobs in the table, and separately the
	// campaigns (default DefaultMaxJobsKept).
	MaxJobsKept int
	// Registry receives the server's and every job spec's telemetry; New
	// creates one when nil. Expose it at /metrics or share it across
	// subsystems.
	Registry *metrics.Registry
	// Journal receives the service's lifecycle events and backs
	// GET /v1/events; New creates one with JournalCapacity (or the obslog
	// default) when nil. Pass an existing journal to share one event
	// stream across subsystems.
	Journal *obslog.Journal
	// JournalCapacity sizes the journal's event ring when New creates it
	// (default obslog.DefaultCapacity). Ignored when Journal is set.
	JournalCapacity int
	// JournalDir, when non-empty, arms durable journaling: an
	// append-only segment store (internal/obslog/store) at this
	// directory. On startup the retained history replays into the ring —
	// sequence numbers continue across restarts, so GET /v1/events?since=
	// positions stay valid — and a follower goroutine persists every new
	// event on the subscriber side, leaving the producers' append path
	// untouched (0 allocs, no blocking; a stalled disk costs ring wraps,
	// counted by leanconsensus_journal_dropped_total).
	JournalDir string
	// JournalStore tunes the segment store (rotation size, retention);
	// zero values select the store defaults. Ignored without JournalDir.
	JournalStore store.Options
	// StateDir, when non-empty, arms durable service state: every
	// admission and every finished job or campaign is appended to one
	// group-committed state log in this directory and acknowledged once
	// it is durable (see internal/server/state.go), ID sequences
	// continue across restarts, finished work is servable again after a
	// restart, and interrupted work re-runs — campaigns resuming from
	// their per-ID checkpoint manifest, byte-identical to an
	// uninterrupted run. With StateDir set, Close becomes a
	// checkpoint-and-stop for campaigns instead of a full drain: they
	// stop at the next cell boundary and the successor process resumes
	// them.
	StateDir string
	// TenantShare is each tenant's guaranteed fraction of HighWater
	// under fair admission (default DefaultTenantShare); must be in
	// (0, 1]. See reserve for the admission rules.
	TenantShare float64
	// MaxTenants caps the named tenant buckets (default
	// DefaultMaxTenants). X-Lean-Tenant is unauthenticated input, so the
	// bucket set and its per-tenant gauges must stay bounded: names past
	// the cap are admitted into the unnamed default bucket instead of
	// allocating new ones.
	MaxTenants int
}

// Server is the HTTP consensus service. Create one with New, mount
// Handler, and Close it to drain.
type Server struct {
	cfg Config
	reg *metrics.Registry
	mux *http.ServeMux

	mu       sync.Mutex
	units    map[string]*unit // admitted jobs and campaigns, by ID
	order    []*unit          // creation order, for eviction
	jobKind  kind
	campKind kind
	closed   bool

	wg     sync.WaitGroup // running jobs and campaigns
	sem    chan struct{}  // bounds concurrently executing jobs/campaigns
	queued atomic.Int64   // instances admitted but not yet finished

	arena *arena.Arena // every unit's cells run here; closed after the last unit

	admitMu      sync.Mutex // serializes the admission decision (reserve)
	tenantMu     sync.Mutex
	tenants      map[string]*tenant
	namedTenants int // named buckets created, capped at cfg.MaxTenants

	completed atomic.Int64 // instances finished, feeding the rate EWMA
	rate      rateEWMA

	state *stateLog // durable service state; nil when StateDir is off
	// stopCtx is cancelled by Close when durable state is armed: running
	// campaigns stop at the next cell boundary (checkpoint-and-stop) and
	// queued work is handed to the successor process instead of drained.
	stopCtx context.Context
	stopFn  context.CancelFunc

	gcMu   sync.Mutex // TTL cache over the stop-the-world MemStats read
	gcAt   time.Time
	gcVal  float64
	gcNow  func() time.Time // injectable for tests
	gcRead func() float64

	campMetrics *campaign.Metrics
	campAxes    *campaign.AxisMetrics

	journal  *obslog.Journal
	store    *store.Store
	follower *obslog.Follower

	journalDropped  atomic.Uint64
	mJournalDropped *metrics.Counter
}

// New validates the configuration, applies defaults, registers the
// server's own metrics, and mounts the routes.
func New(cfg Config) (*Server, error) {
	if cfg.Shards == 0 {
		cfg.Shards = arena.DefaultShards
	}
	if cfg.Workers == 0 {
		cfg.Workers = arena.DefaultWorkers
	}
	if cfg.HighWater == 0 {
		cfg.HighWater = DefaultHighWater
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxConcurrentJobs == 0 {
		cfg.MaxConcurrentJobs = runtime.GOMAXPROCS(0) / 2
		if cfg.MaxConcurrentJobs < 1 {
			cfg.MaxConcurrentJobs = 1
		}
	}
	if cfg.MaxJobsKept == 0 {
		cfg.MaxJobsKept = DefaultMaxJobsKept
	}
	if cfg.TenantShare == 0 {
		cfg.TenantShare = DefaultTenantShare
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.Shards < 0 || cfg.Workers < 0 || cfg.HighWater < 0 ||
		cfg.MaxBatch < 0 || cfg.MaxConcurrentJobs < 0 || cfg.MaxJobsKept < 1 ||
		cfg.MaxTenants < 0 {
		return nil, fmt.Errorf("server: negative configuration")
	}
	if cfg.TenantShare < 0 || cfg.TenantShare > 1 {
		return nil, fmt.Errorf("server: tenant share %v outside (0, 1]", cfg.TenantShare)
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	pool, err := arena.New(arena.Config{Shards: cfg.Shards, Workers: cfg.Workers * cfg.MaxConcurrentJobs})
	if err != nil {
		return nil, err
	}
	s := &Server{
		arena:   pool,
		cfg:     cfg,
		reg:     cfg.Registry,
		units:   make(map[string]*unit),
		tenants: make(map[string]*tenant),
		sem:     make(chan struct{}, cfg.MaxConcurrentJobs),
		gcNow:   time.Now,
		gcRead:  gcPauseP99Ms,
		jobKind: kind{noun: "job", idFormat: "j-%06d", route: "/v1/jobs/",
			admitEv: obslog.KindJobAdmit, doneEv: obslog.KindJobDone, decode: decodeJob, restore: restoreJob},
		campKind: kind{noun: "campaign", idFormat: "c-%06d", route: "/v1/campaigns/",
			admitEv: obslog.KindCampaignStart, doneEv: obslog.KindCampaignDone, checkpoints: true,
			decode: decodeCampaign, restore: restoreCampaign},
	}
	s.rate.now = time.Now
	s.rate.rate = initialRate
	s.stopCtx, s.stopFn = context.WithCancel(context.Background())
	s.jobKind.register(s.reg, "job batches by lifecycle event")
	s.campKind.register(s.reg, "campaigns by lifecycle event")
	s.campMetrics = campaign.NewMetrics(s.reg)
	s.campAxes = campaign.NewAxisMetrics(s.reg)
	s.reg.GaugeFunc("leanconsensus_queued_instances",
		"instances admitted but not yet finished (the admission-control queue depth)",
		s.queued.Load)
	bi := buildinfo.Read()
	s.reg.Gauge("leanconsensus_build_info"+metrics.Labels("version", bi.Version, "revision", bi.Revision),
		"constant 1; the labels identify the running build").Set(1)

	// Durable state restores before the journal store arms: the restored
	// tables and continued ID sequences must exist before any replayed
	// history is followed or any resumed work journals new events.
	var rerun []*unit
	var torn int64
	if cfg.StateDir != "" {
		if rerun, torn, err = s.armState(); err != nil {
			pool.Close()
			return nil, err
		}
	}

	s.journal = cfg.Journal
	if s.journal == nil {
		s.journal = obslog.New(cfg.JournalCapacity)
	}
	s.mJournalDropped = s.reg.Counter("leanconsensus_journal_dropped_total",
		"journal events lost to ring wrap before the persistence follower could record them (seq gaps)")
	if cfg.JournalDir != "" {
		if err := s.armJournalStore(cfg); err != nil {
			if s.state != nil {
				s.state.close() //nolint:errcheck // boot already failed
			}
			pool.Close()
			return nil, err
		}
	}
	if torn > 0 {
		// The state log's torn tail, in the event kind the journal store
		// uses for its own.
		s.journal.Append(obslog.KindJournalTruncate, "", "",
			obslog.Labels{Count: torn, Detail: stateLogName})
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit(&s.jobKind))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus(&s.jobKind))
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream(&s.jobKind))
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit(&s.campKind))
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus(&s.campKind))
	s.mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.handleStream(&s.campKind))
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/adversaries", s.handleAdversaries)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	// Interrupted work re-runs last, once the journal is armed: the
	// previous process admitted it (its job.admit or campaign.start is
	// already durable history), so it re-enters the gate unconditionally
	// rather than through reserve, and its start/resume/done events
	// continue the replayed chain.
	for _, u := range rerun {
		u.tb = s.tenantFor(u.tenant)
		s.queued.Add(u.instances)
		u.tb.queued.Add(u.instances)
		s.wg.Add(1)
		go s.run(u)
	}
	return s, nil
}

// Handler returns the service's HTTP handler: the routes wrapped so
// every served request journals one server.request event on completion.
// Observability reads — /v1/events itself, /metrics, /healthz — are
// exempt, or a polling leantop would fill the ring with its own
// footprints.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Match the exemptions against the canonical cleaned path: a
		// poller hitting //v1/events or /metrics/ is the same poller,
		// and must not journal its own footprints into the ring.
		switch path.Clean("/" + r.URL.Path) {
		case "/v1/events", "/metrics", "/healthz":
			s.mux.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(sw, r)
		s.journal.Append(obslog.KindServerRequest, "", "",
			obslog.Labels{Count: int64(sw.status), Detail: r.Method + " " + r.URL.Path})
	})
}

// statusWriter captures the response status for the request journal.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards streaming flushes so SSE keeps working through the
// journaling wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// armJournalStore opens the segment store, replays its retained tail
// into the ring (continuing the sequence numbering across the restart
// boundary), journals the torn-tail truncation if Open had to cut one,
// and starts the persistence follower. Disk writes happen only on the
// follower's goroutine — never on a producer's append path.
func (s *Server) armJournalStore(cfg Config) error {
	opts := cfg.JournalStore
	fsync := s.reg.Histogram("leanconsensus_journal_fsync_seconds",
		"journal segment fsync latency in seconds", fsyncBuckets)
	prevFsync := opts.OnFsync
	opts.OnFsync = func(d time.Duration) {
		fsync.Observe(d.Seconds())
		if prevFsync != nil {
			prevFsync(d)
		}
	}
	st, err := store.Open(cfg.JournalDir, opts)
	if err != nil {
		return err
	}
	tail, err := st.Tail(s.journal.Cap())
	if err != nil {
		st.Close()
		return err
	}
	s.journal.Restore(tail, st.LastSeq())
	if rec := st.Recovery(); rec.Truncated {
		s.journal.Append(obslog.KindJournalTruncate, "", "",
			obslog.Labels{Count: rec.DroppedBytes, Detail: rec.File})
	}
	s.store = st
	s.reg.GaugeFunc("leanconsensus_journal_segment_bytes",
		"total on-disk journal segment bytes", st.Bytes)
	s.follower = s.journal.Follow(st, obslog.FollowConfig{
		From: st.LastSeq(),
		OnDrop: func(n uint64) {
			s.journalDropped.Add(n)
			s.mJournalDropped.Add(int64(n))
		},
	})
	return nil
}

// fsyncBuckets spans SSD-fast (100µs) to spinning-rust-contended (1s).
var fsyncBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Journal returns the server's event journal.
func (s *Server) Journal() *obslog.Journal { return s.journal }

// JournalDropped reports events the persistence follower lost to ring
// wraps (0 when durable journaling is off).
func (s *Server) JournalDropped() uint64 { return s.journalDropped.Load() }

// Registry returns the metrics registry the server records into.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// QueuedInstances reports the admission-control queue depth.
func (s *Server) QueuedInstances() int64 { return s.queued.Load() }

// Close stops admitting jobs and drains: it returns once every accepted
// job has run to completion and — when durable journaling is armed —
// the persistence follower has flushed the tail of the event stream to
// disk. With durable state armed, campaigns are not drained to
// completion: Close cancels them at the next cell boundary, their
// checkpoints and still-"admitted" records survive, and the next boot
// on the same state dir resumes them — that is the zero-lost-work
// restart handoff. It is idempotent and safe to call concurrently with
// in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.state != nil {
		s.stopFn()
	}
	s.wg.Wait()
	s.stopFn()
	s.arena.Close()
	var err error
	if s.state != nil {
		err = s.state.close()
	}
	if s.follower != nil {
		s.follower.Stop()
	}
	if s.store != nil {
		if serr := s.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is the only failure mode
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// headerValue extracts and validates an optional identity header, the
// correlation or the tenant: empty when absent, a 400-worthy error when
// longer than max bytes or holding control characters.
func headerValue(r *http.Request, name string, max int) (string, error) {
	v := strings.TrimSpace(r.Header.Get(name))
	if len(v) > max {
		return "", fmt.Errorf("server: %s longer than %d bytes", name, max)
	}
	for _, c := range v {
		if c < 0x20 || c == 0x7f {
			return "", fmt.Errorf("server: %s contains control characters", name)
		}
	}
	return v, nil
}

// handleJobTrace serves a traced job's flight-recorder captures. It
// answers at any lifecycle stage — capture blocks appear as specs
// finish — so clients can poll it alongside the status endpoint.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if u := s.lookup(&s.jobKind, w, r); u != nil {
		writeJSON(w, http.StatusOK, u.work.(*job).traceSnapshot())
	}
}

// handleModels lists the three registries the wire spec resolves
// against.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := Catalog{DefaultModel: engine.DefaultModel}
	for _, info := range engine.List() {
		resp.Models = append(resp.Models, ModelInfo{Name: info.Name, Brief: info.Brief})
	}
	for _, name := range engine.VariantNames() {
		resp.Variants = append(resp.Variants, VariantInfo{
			Name:     name,
			Servable: name == engine.ServableVariant,
		})
	}
	for _, name := range distNames() {
		resp.Dists = append(resp.Dists, name)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdversaries lists the adversary registry — the /v1/models of the
// adversary axis: names, parameter schemas with defaults, and the models
// each schedule can run under.
func (s *Server) handleAdversaries(w http.ResponseWriter, r *http.Request) {
	resp := AdversaryCatalog{DefaultAdversary: engine.DefaultAdversary}
	for _, info := range engine.AdversaryList() {
		ai := AdversaryInfo{
			Name:      info.Name,
			Canonical: info.Canonical,
			Brief:     info.Brief,
			Models:    info.Models,
		}
		for _, p := range info.Params {
			ai.Params = append(ai.Params, AdversaryParam{Name: p.Name, Default: p.Default, Integer: p.Integer})
		}
		resp.Adversaries = append(resp.Adversaries, ai)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness: 200 while serving, 503 once draining.
// The jobs and campaigns fields count live (queued or running) units,
// not the finished history the table retains for polling.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	live, liveCampaigns, depth := 0, 0, 0
	for _, u := range s.order {
		if u.finished() {
			continue
		}
		if u.kind == &s.jobKind {
			live++
		} else {
			liveCampaigns++
		}
		if jobState(u.state.Load()) == stateQueued {
			depth++
		}
	}
	s.mu.Unlock()
	s.tenantMu.Lock()
	tenants := 0
	for name, t := range s.tenants {
		if name != "" && t.queued.Load() > 0 {
			tenants++
		}
	}
	s.tenantMu.Unlock()
	status, code := "ok", http.StatusOK
	if closed {
		status, code = "draining", http.StatusServiceUnavailable
	}
	bi := buildinfo.Read()
	writeJSON(w, code, Health{
		Status:          status,
		Version:         bi.Version,
		Revision:        bi.Revision,
		Node:            s.journal.Node(),
		QueuedInstances: s.queued.Load(),
		Jobs:            live,
		Campaigns:       liveCampaigns,
		QueueDepth:      depth,
		Tenants:         tenants,
		Goroutines:      runtime.NumGoroutine(),
		GCPauseP99Ms:    s.cachedGCPauseP99Ms(),
		JournalDropped:  s.JournalDropped(),
	})
}

// gcPauseTTL bounds how often /healthz pays for a ReadMemStats.
const gcPauseTTL = 2 * time.Second

// cachedGCPauseP99Ms serves the GC-pause vital from a short TTL cache:
// runtime.ReadMemStats is a stop-the-world read, so a tight poll loop
// (leantop at a fast refresh) would otherwise induce the very pauses it
// is trying to measure.
func (s *Server) cachedGCPauseP99Ms() float64 {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	now := s.gcNow()
	if s.gcAt.IsZero() || now.Sub(s.gcAt) >= gcPauseTTL {
		s.gcVal = s.gcRead()
		s.gcAt = now
	}
	return s.gcVal
}

// gcPauseP99Ms reports the 99th-percentile stop-the-world GC pause, in
// milliseconds, over the runtime's recent-pause ring (up to the last 256
// GCs). 0 before the first collection.
func gcPauseP99Ms() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]uint64, n)
	copy(pauses, ms.PauseNs[:n])
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	idx := (n*99 + 99) / 100 // ceil(0.99 n), 1-based
	if idx > n {
		idx = n
	}
	return float64(pauses[idx-1]) / 1e6
}

// handleMetrics renders the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.reg.WritePrometheus(w) //nolint:errcheck // the connection is the only failure mode
}
