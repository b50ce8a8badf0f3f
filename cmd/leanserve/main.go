// Command leanserve is the network-facing consensus service: an
// HTTP/JSON daemon serving batched lean-consensus jobs over the sharded
// arena, with admission control and Prometheus telemetry.
//
// Usage:
//
//	leanserve [-addr 127.0.0.1:8080] [-shards 8] [-workers 2]
//	          [-highwater 262144] [-maxbatch 64]
//	          [-maxjobs N]  (default GOMAXPROCS/2)
//	          [-state-dir DIR] [-tenant-share 0.5] [-max-tenants 64]
//	          [-journal-dir DIR] [-debug-addr ADDR] [-list] [-version]
//
// -state-dir makes the service state durable: every admission and every
// finished job or campaign is appended to one CRC-framed state log,
// DIR/state.log, and acknowledged only once a group commit (one fsync
// shared by concurrent appends, none under the table lock) has made it
// durable. ID sequences continue across restarts, finished work stays
// servable at GET /v1/jobs/{id} / GET /v1/campaigns/{id} on the new
// process, and interrupted work re-runs at boot — campaigns resume from
// their checkpoint manifest under DIR/checkpoints, emitting a report
// byte-identical to an uninterrupted run. With -state-dir, SIGINT is a
// checkpoint-and-stop handoff instead of a full drain: running
// campaigns stop at the next cell boundary and the restarted process
// picks them up.
//
// -journal-dir makes the operations journal durable: a follower
// goroutine persists every event to length-prefixed, CRC-checked
// segments under DIR, and on startup the retained history replays into
// the in-memory ring — sequence numbers continue across restarts, so
// GET /v1/events?since= positions stay valid over a crash or deploy.
// Disk writes never touch the request path: a stalling disk costs
// history (visible as leanconsensus_journal_dropped_total), never
// admission latency.
//
// Admission is per-tenant fair: requests carrying an X-Lean-Tenant
// header are bucketed, each tenant is guaranteed -tenant-share of the
// high-water mark (unused share spills over to whoever needs it), and
// leanconsensus_tenant_queued_instances says who owns the backlog.
// The header is unauthenticated, so both sides of the gate are
// bounded: the global backlog never exceeds the high-water mark plus
// one guaranteed share regardless of how many tenant names arrive, and
// at most -max-tenants named buckets (and gauges) are ever created —
// names past the cap are accounted in the unnamed default bucket.
//
// -debug-addr serves net/http/pprof (CPU and heap profiles, goroutine
// dumps, execution traces) on a separate listener, so profiling stays
// off the service port and off by default; bind it to localhost, e.g.
// -debug-addr 127.0.0.1:6060, and point go tool pprof at
// http://127.0.0.1:6060/debug/pprof/profile. -version prints the build
// identity (module version, VCS revision, toolchain) and exits.
//
// Endpoints:
//
//	POST /v1/jobs            submit a batch of job specs (202 + job id)
//	GET  /v1/jobs/{id}       poll status and results
//	GET  /v1/jobs/{id}/stream  per-shard progress as server-sent events
//	GET  /v1/jobs/{id}/trace   flight-recorder captures of a traced job
//	POST /v1/campaigns       submit a declarative campaign grid (202 + id)
//	GET  /v1/campaigns/{id}  poll campaign status and the final report
//	GET  /v1/campaigns/{id}/stream  cell progress as server-sent events
//	GET  /v1/models          list registered models, variants, distributions
//	GET  /healthz            liveness (200 ok / 503 draining)
//	GET  /metrics            Prometheus text exposition
//
// Job specs resolve through the same registries as every other tool, so
// -list shows exactly what the service accepts. On SIGINT/SIGTERM the
// daemon stops admitting, drains in-flight jobs through the arena's
// graceful Close, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"leanconsensus/internal/cli"
	"leanconsensus/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, cli.ErrUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "leanserve:", err)
		os.Exit(1)
	}
}

// shutdownTimeout bounds how long drain waits for open connections
// (long-lived SSE streams end when their jobs do; this is the backstop).
const shutdownTimeout = 30 * time.Second

// run starts the daemon and blocks until ctx is cancelled, then drains.
// It prints the bound address as its first output line, so callers (and
// tests) can use an ephemeral ":0" port.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("leanserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	shards := fs.Int("shards", 0, "arena shards per job (default 8)")
	workers := fs.Int("workers", 0, "arena workers per shard (default 2)")
	highwater := fs.Int64("highwater", 0, "queued-instance high-water mark for 429 shedding (default 262144)")
	maxbatch := fs.Int("maxbatch", 0, "maximum job specs per POST (default 64)")
	maxjobs := fs.Int("maxjobs", 0, "maximum concurrently executing jobs (default GOMAXPROCS/2)")
	stateDir := fs.String("state-dir", "", "keep a group-committed log of admitted and finished jobs/campaigns in this directory and resume them across restarts (off when empty)")
	tenantShare := fs.Float64("tenant-share", 0, "guaranteed per-tenant fraction of the high-water mark (default 0.5)")
	maxTenants := fs.Int("max-tenants", 0, "maximum named tenant buckets; further names share the default bucket (default 64)")
	journalDir := fs.String("journal-dir", "", "persist the operations journal to segments in this directory (off when empty)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this extra listener (off when empty)")
	list := fs.Bool("list", false, "list execution models and distributions, then exit")
	version := fs.Bool("version", false, "print build information, then exit")
	if done, err := cli.Parse(fs, args); done {
		return err
	}
	if *version {
		cli.PrintVersion(stdout, "leanserve")
		return nil
	}
	if *list {
		cli.List(stdout)
		return nil
	}

	srv, err := server.New(server.Config{
		Shards:            *shards,
		Workers:           *workers,
		HighWater:         *highwater,
		MaxBatch:          *maxbatch,
		MaxConcurrentJobs: *maxjobs,
		JournalDir:        *journalDir,
		StateDir:          *stateDir,
		TenantShare:       *tenantShare,
		MaxTenants:        *maxTenants,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "leanserve: listening on http://%s\n", ln.Addr())
	if *journalDir != "" {
		fmt.Fprintf(stdout, "leanserve: journal persisted to %s\n", *journalDir)
	}
	if *stateDir != "" {
		fmt.Fprintf(stdout, "leanserve: state persisted to %s\n", *stateDir)
	}

	// The debug listener is deliberately separate from the service port:
	// profiling endpoints never ride on the address operators expose, and
	// an explicit mux keeps them off http.DefaultServeMux side effects.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Handler: dmux}
		defer ds.Close()
		go ds.Serve(dln) //nolint:errcheck // closed on shutdown; profiling is best-effort
		fmt.Fprintf(stdout, "leanserve: debug (pprof) listening on http://%s/debug/pprof/\n", dln.Addr())
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "leanserve: draining")
	// Drain the job queue first: once every job has finished, the SSE
	// streams have sent their terminal events and the connections can go
	// idle, so the HTTP shutdown below completes promptly.
	if err := srv.Close(); err != nil {
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
	}
	fmt.Fprintln(stdout, "leanserve: drained")
	return nil
}
