// Command e2ebench is the end-to-end benchmark of the leanconsensus
// service. It boots an in-process internal/server on loopback, drives it
// through the root leanconsensus.Client with one of three fixed workloads
// for a timed window, checks every result, and prints the metrics that
// BENCHMARK.json at the repository root names, as the last line of its
// output:
//
//	{"correct": true, "attempted": 900, "failed": 0, "metrics": {"latency_p50_ms": {"value": 3.41, "unit": "ms"}, ...}}
//
// # Usage
//
// From the repository root:
//
//	bash benchmark/run.sh --workload jobs-mixed --seed 1 --seconds 10 --trace 0
//
// run.sh builds this module, which replaces the leanconsensus module
// with the checkout around it, into .bench_build/ and runs it there. The
// flags:
//
//   - --workload: jobs-mixed, jobs-durable or campaign-sweep (below).
//   - --seed: drives every generated input — arrival times, job sizes,
//     job seeds, campaign seeds — so a seed always yields the same inputs.
//   - --seconds: the timed window (default 20).
//   - --trace 1: record spans and print the per-layer metrics instead of
//     the end-to-end ones; --spans FILE also writes the spans there as
//     JSON lines.
//
// The command exits 0 when every result was correct, and 1 when any was
// not or the run could not complete; failures are listed on stderr.
//
// # Fixed shape
//
// The server runs with Shards 2, Workers 1 and MaxConcurrentJobs 1, set
// explicitly so the load shape is the same on any host. The client has
// one transport with at most two connections: one holds a single
// Client.StreamEvents subscription, which detects every job.done and
// campaign.done, and the other carries every other request. Completion
// is detected from the stream, never by polling, which would quantize
// latency. Before anything is timed the client subscribes, then repeats
// GET /v1/models until that request's server.request event arrives on
// the stream: a single request could race the subscription.
//
// # Workloads
//
//   - jobs-mixed: open loop, 60 jobs/s. Each job is one spec: sched, n=8,
//     exponential noise, 100, 1000 or 5000 instances at 70/25/5 %; tenants
//     a and b alternate; durable state is off. This is the interactive
//     path — one arena per job, per-instance Submit — and the wait for
//     the single execution slot behind 5000-instance jobs sets p99. It
//     bypasses msgnet and persistence.
//   - jobs-durable: the same arrivals with 1, 10 or 50 instances, durable
//     state and journal on in fresh directories, and a 2 Hz operator poll
//     (GET /healthz, GET /metrics, job.done events) sharing the request
//     connection. Engine work is negligible, so admission, record
//     persistence, the journal store and encoding dominate, with reads
//     beside writes.
//   - campaign-sweep: closed loop, one client. Each campaign is sched and
//     hybrid × exponential and uniform × n 4, 16, 64 × 1000 repetitions:
//     9 cells, 9000 instances. This is the bulk research path, batched
//     cells and the sched engine at large n; with about one request every
//     0.3 s, work on the job path or on persistence should not move it.
//
// The message-passing engine (msgnet, the paper's Section 10 setting) has
// no workload of its own. On a shared 2-vCPU host whose speed drifts over
// minutes, a closed loop of msgnet campaigns spread by 20–36 % between the
// quartiles of ten runs of one commit, where campaign-sweep spread by 12 %
// in the same session, and its fastest campaigns slowed as much as its
// median, so no estimator within a run removed the drift. No bound could
// then tell a regression from the host. Traced runs of every workload
// replay the msgnet engine instead (engine.msgnet.*, below).
//
// The job mix is drawn per block of 20 jobs (14 small, 5 medium, 1
// large, shuffled), so every seed offers exactly the same work; arrival
// times are a Poisson process conditioned on 60 jobs per second of the
// window.
//
// # Loops
//
// An open loop sends each job at its due time whatever the service does,
// so a stall queues later jobs; its latency counts from the due time, not
// from the send, so the stall is charged to every job it delays. It ends
// when the last job's result is in hand. A closed loop sends the next
// campaign when the previous report is in hand, so a slow service
// receives less load; its latency counts from the POST, and it stops
// sending once the window has passed.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: boot (opening state and journal directories), stream
//     readiness, and warm-up — 50 closed-loop jobs of the mix, or one
//     campaign. Set-up runs five times in fresh servers, the last one
//     serving the window; the median is reported.
//   - latency_p50_ms: median latency of the workload's typical unit,
//     from due time (open loop) or POST (closed loop) to result in hand —
//     the GET after the terminal event. The typical unit is a small job on
//     the open loops (70 % of their jobs) and any campaign on the closed
//     loops. The median over all jobs of the mix sits where small jobs
//     that waited behind a larger one meet those that did not, so it
//     swings with small changes in utilization.
//   - throughput_inst_s: verified instances over the time from window
//     start to the last result. For open loops it equals the offered load
//     unless a backlog builds.
//   - cpu_ms_per_kinst: process CPU (getrusage user+sys) over the window
//     per 1000 instances; it moves on open loops, whose throughput the
//     offered rate pins.
//   - rss_peak_mb: ru_maxrss at the end of the window.
//
// The p99 over all units is printed on stderr with its sample count, and
// by traced runs as trace.latency_p99_ms, but it is not an end-to-end
// metric: across runs of one commit it spread by 25–50 % (fsync tails on
// jobs-durable, head-of-line waits on jobs-mixed), more than any bound
// that could still catch a regression.
//
// Every result is checked: each job must report decided0+decided1 equal
// to its instances and no errors; each campaign cell likewise, with no
// violations. After the window, untimed, the first two campaigns' served
// reports must be byte-identical to a local campaign.Run of the same
// spec. Failures are 429 and 5xx responses, units without a terminal
// event within 30 s, and wrong results; they count in "failed", and
// failed over attempted is the failure rate.
//
// # Per-layer metrics (--trace 1)
//
// A traced run drives the same workload with spans around every client
// call, joins them with the journal timestamps of /v1/events, and after
// the window replays the workload's generated inputs against the public
// functions of each lower layer. Layers use the module names; each line
// names the end-to-end metric, and the workload, a change to that layer
// should move.
//
//   - leanconsensus (Client): client.submit_ms, client.fetch_ms,
//     client.fetch_bytes.mean, client.notify_ms (job.done journal
//     timestamp to its arrival on the stream), client.gen_late_ms (how
//     late the generator sent; above 5 ms an open-loop run is suspect).
//     Moves latency_p50_ms on jobs-durable.
//   - internal/server: server.slot_wait_ms (job.admit to job.start),
//     server.run_ms (job.start to job.done), server.shed,
//     server.events_per_job. Campaigns journal no start event, so for them
//     the slot wait runs to the first campaign.cell.done and includes that
//     cell. Moves the tail on jobs-mixed (head-of-line wait):
//     trace.latency_p99_ms, the p99 over all units of the traced run, and
//     the p99 an untraced run prints on stderr.
//   - internal/server (replay): server.decode_us (DecodeSubmit, or
//     campaign.DecodeSpec for campaigns), server.post_us (Handler
//     ServeHTTP of a tiny POST through httptest), server.persist_us (the
//     same with StateDir on, minus off). Moves latency_p50_ms and
//     cpu_ms_per_kinst on jobs-durable, nothing on jobs-mixed.
//   - internal/arena (replay): arena.new_close_us (New plus Close per job
//     spec), arena.instance_us (Result.Latency on the Submit path),
//     arena.submit_inst_s against arena.cell_inst_s (the same specs
//     through Submit and through RunCells). Moves latency_p50_ms and
//     cpu_ms_per_kinst on both job workloads, nothing on campaign-sweep.
//   - internal/engine (replay, one pooled Session):
//     engine.<model>.n<N>.us_per_inst, .allocs_per_inst and .ops_per_inst
//     for sched n8 and n64, hybrid n64, msgnet n4 and n8, and
//     engine.msgnet.n8.msgs_per_inst and .ns_per_msg (msgnet.Sim.Run).
//     The sched cases move throughput_inst_s on campaign-sweep and
//     cpu_ms_per_kinst on jobs-mixed; the msgnet cases move no end-to-end
//     metric, since no workload runs msgnet.
//   - internal/campaign (replay): campaign.inst_per_s (a local
//     Campaign.Run of the workload's campaign, or for job workloads of
//     their job shape over four job seeds), campaign.cell_ms
//     (Progress.CellLatency), campaign.service_overhead_frac (1 − end-to-end
//     over local throughput). Moves throughput_inst_s on campaign-sweep.
//   - internal/obslog and its store (replay): obslog.append_ns
//     (Journal.Append), obslog.fsync_ms (store.Options.OnFsync over 100
//     batches of 10 events), obslog.dropped (from /healthz; must be 0).
//     Moves cpu_ms_per_kinst on jobs-durable.
//   - internal/metrics: metrics.render_ms and metrics.bytes, Client.Metrics
//     against the loaded server after the window. Moves the tail
//     (trace.latency_p99_ms) on jobs-durable, whose poll reads share the
//     request connection with the writes.
//   - process: proc.allocs_per_inst, proc.gc_per_kinst and
//     proc.goroutines.max over the window. Moves cpu_ms_per_kinst on
//     every workload.
//
// Together these cover the service's stages: admission (submit, post),
// the wait for an execution slot (slot_wait), the arena queue
// (arena.instance_us minus engine us_per_inst), the engine run, the fold
// (campaign.cell_ms minus engine time), persistence (persist_us, fsync)
// and encoding (fetch_ms, fetch_bytes).
//
// # Reading spans
//
// A job's root span runs from its due time to its result in hand, with
// children gen.lag, client.submit, server.slot_wait, server.run, notify
// and client.fetch; a campaign's has the same children. Replays nest the
// same way, e.g. arena.job over arena.new, arena.submit_all and
// arena.close. A layer's self time is its span minus the part of it its
// children cover; stderr of a traced run lists the median duration and
// self time of every span name. Server spans come from journal
// timestamps and overlap client.submit, so the root's self time is the
// time no layer accounts for. End-to-end numbers always come from an
// untraced run; trace.latency_p50_ms is the traced run's own
// latency_p50_ms, and its difference from an untraced run's is the
// tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"leanconsensus"
	"leanconsensus/internal/campaign"
)

func main() {
	os.Exit(cmdMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cmdMain parses the flags, runs the benchmark and prints its result.
func cmdMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: jobs-mixed, jobs-durable or campaign-sweep")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := run(config{
		w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, spansPath: *spans, workDir: ".bench_build",
		setups: 5, scale: 1, log: stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// config is one run's settings. The command always uses five set-ups,
// full-size replays and .bench_build/ in the current directory for
// durable state; tests shrink the first two and use temporary
// directories.
type config struct {
	w         *workload
	seed      uint64
	window    time.Duration
	traced    bool
	spansPath string
	workDir   string
	setups    int
	scale     float64 // replay size factor, 1 at full size
	log       io.Writer
}

// result is the printed summary.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run: set-ups, the timed window, the
// correctness checks and, when traced, the layer replays.
//
// The run directory under cfg.workDir is kept, not deleted. Removing a
// durable run's thousands of small state files made the following runs'
// fsyncs slower — a steady 30–90 % rise in jobs-durable latency over
// back-to-back runs on a 2-vCPU VM whose ext4 root is mounted with
// discard — while keeping them held latency level. Delete .bench_build/
// between benchmark sessions instead.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	svc, setupS, err := setUp(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	t := &tally{log: cfg.log}
	var spans *spanLog
	if cfg.traced {
		spans = &spanLog{}
	}
	var jobs []jobInput
	if cfg.w.grid == nil {
		jobs = cfg.w.jobs(cfg.seed, cfg.window)
	}
	win := measure(cfg, svc, jobs, spans, t)
	for _, o := range win.outs {
		t.record(o.err)
	}
	local := verifyReports(cfg, win.outs, spans, t)

	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	all, typical := win.latencies(cfg.w)
	if cfg.traced {
		if err := layerMetrics(cfg, svc, win, local, jobs, dir, spans, t, put); err != nil {
			return nil, err
		}
	} else {
		put("setup_s", "s", pct(setupS, 50))
		put("latency_p50_ms", "ms", pct(typical, 50))
		put("throughput_inst_s", "inst/s", win.throughput())
		put("cpu_ms_per_kinst", "ms", float64(win.cpu.Microseconds())/1e3/(float64(win.instances)/1e3))
		put("rss_peak_mb", "MB", win.rssMB)
	}
	fmt.Fprintf(cfg.log, "e2ebench: %s seed %d: %d units in %.2f s, %d of them typical; p50 %.3f ms typical, %.3f ms all; p99 %.3f ms all (%d beyond it); failed %d of %d\n",
		cfg.w.name, cfg.seed, len(all), float64(win.end-win.start)/1e9, len(typical),
		pct(typical, 50), pct(all, 50), pct(all, 99), len(all)/100, t.failed, t.attempted)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.record(fmt.Errorf("metric %s has no samples", name))
			delete(res.Metrics, name)
		}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	return res, nil
}

// setUp boots, readies and warms a service cfg.setups times, each in a
// fresh directory. Every service but the last is closed; the last serves
// the window. It returns that service and each set-up's duration.
func setUp(cfg config, dir string) (*service, []float64, error) {
	var times []float64
	var svc *service
	for i := range cfg.setups {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, nil, fmt.Errorf("close set-up service: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if svc, err = boot(cfg.w, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), cfg.traced); err != nil {
			return nil, nil, err
		}
		if err := svc.warmUp(context.Background(), cfg.w, cfg.seed); err != nil {
			svc.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return svc, times, nil
}

// window is what the timed window measured.
type window struct {
	outs       []outcome
	start, end int64 // wall ns: window start, last verified result in hand
	instances  int64 // verified instances
	cpu        time.Duration
	rssMB      float64
	// Journal events and job.shed events received during the window.
	events, sheds int64
	// Traced runs only.
	mallocs, gcs  uint64
	maxGoroutines int
}

// measure drives the workload for one window and takes the process's
// CPU, memory and journal counts around it.
func measure(cfg config, svc *service, jobs []jobInput, spans *spanLog, t *tally) *window {
	ctx := context.Background()
	win := &window{}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if cfg.w.durable {
		bg.Add(1)
		go func() {
			defer bg.Done()
			svc.operatorPoll(ctx, stop, t)
		}()
	}
	var ms0, ms1 runtime.MemStats
	if cfg.traced {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				win.maxGoroutines = max(win.maxGoroutines, runtime.NumGoroutine())
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		runtime.ReadMemStats(&ms0)
	}
	events0, sheds0 := svc.events.counts()
	cpu0 := cpuTime()
	if cfg.w.grid == nil {
		win.start, win.outs = svc.openLoop(ctx, jobs, spans)
	} else {
		win.start, win.outs = svc.closedLoop(ctx, cfg.w, cfg.seed, cfg.window, spans)
	}
	win.cpu = cpuTime() - cpu0
	win.rssMB = maxRSSMB()
	events1, sheds1 := svc.events.counts()
	if cfg.traced {
		runtime.ReadMemStats(&ms1)
	}
	close(stop)
	bg.Wait()
	win.events, win.sheds = events1-events0, sheds1-sheds0
	win.mallocs, win.gcs = ms1.Mallocs-ms0.Mallocs, uint64(ms1.NumGC-ms0.NumGC)
	win.end = win.start
	for _, o := range win.outs {
		if o.err == nil {
			win.instances += o.instances
			win.end = max(win.end, o.end)
		}
	}
	return win
}

// throughput is verified instances per second from the window's start
// to its last result.
func (win *window) throughput() float64 {
	return float64(win.instances) / (float64(win.end-win.start) / 1e9)
}

// latencies returns the latencies of every verified unit, and of the
// workload's typical unit: its small jobs (70 % of an open loop), or
// every campaign of a closed loop. The median over all jobs of the mix
// falls where small jobs that waited behind a larger one meet those that
// did not, so a small change in utilization swings it between the two;
// the small jobs' own median does not have that edge.
func (win *window) latencies(w *workload) (all, typical []float64) {
	for _, o := range win.outs {
		if o.err != nil {
			continue
		}
		all = append(all, o.latency)
		if w.grid != nil || o.instances == int64(w.sizes[0]) {
			typical = append(typical, o.latency)
		}
	}
	return all, typical
}

// localRun is the first served campaign's local twin, timed.
type localRun struct {
	instPerS float64
	cellMs   []float64
}

// verifyReports checks, untimed, that the first two served campaign
// reports are byte-identical to local campaign.Run reports of the same
// specs, and returns the first local run's timing.
func verifyReports(cfg config, outs []outcome, spans *spanLog, t *tally) localRun {
	var first localRun
	for i, o := range outs[:min(2, len(outs))] {
		if o.report == nil {
			continue
		}
		rep, instPerS, cellMs, err := localCampaign(internalSpec(cfg.w.campaign(cfg.seed, i)), "local-"+o.id, spans)
		if err == nil {
			err = sameReport(o.report, rep)
		}
		if err != nil {
			err = fmt.Errorf("campaign %s against local campaign.Run: %w", o.id, err)
		} else if i == 0 {
			first = localRun{instPerS, cellMs}
		}
		t.record(err)
	}
	return first
}

// layerMetrics computes the per-layer metrics of a traced run: from its
// spans and counters, from reads against the still-loaded service, and
// from the layer replays.
func layerMetrics(cfg config, svc *service, win *window, local localRun, jobs []jobInput, dir string,
	spans *spanLog, t *tally, put func(name, unit string, v float64)) error {
	ctx := context.Background()
	all, typical := win.latencies(cfg.w)
	span := func(name string, p float64) float64 { return pct(spans.durations(name), p) }
	put("trace.latency_p50_ms", "ms", pct(typical, 50))
	put("trace.latency_p99_ms", "ms", pct(all, 99))
	put("client.submit_ms.p50", "ms", span("client.submit", 50))
	put("client.submit_ms.p99", "ms", span("client.submit", 99))
	put("client.fetch_ms.p50", "ms", span("client.fetch", 50))
	put("client.fetch_bytes.mean", "B", float64(svc.bytes.bytes.Load())/float64(max(svc.bytes.fetches.Load(), 1)))
	put("client.notify_ms.p50", "ms", span("notify", 50))
	put("client.gen_late_ms.p99", "ms", span("gen.lag", 99))
	put("server.slot_wait_ms.p50", "ms", span("server.slot_wait", 50))
	put("server.slot_wait_ms.p99", "ms", span("server.slot_wait", 99))
	put("server.run_ms.p50", "ms", span("server.run", 50))
	put("server.run_ms.p99", "ms", span("server.run", 99))
	put("server.shed", "count", float64(win.sheds))
	put("server.events_per_job", "count", float64(win.events)/float64(len(all)))
	put("proc.allocs_per_inst", "allocs/inst", float64(win.mallocs)/float64(win.instances))
	put("proc.gc_per_kinst", "count", float64(win.gcs)/(float64(win.instances)/1e3))
	put("proc.goroutines.max", "count", float64(win.maxGoroutines))
	if late := span("gen.lag", 99); cfg.w.grid == nil && late > 5 {
		fmt.Fprintf(cfg.log, "e2ebench: WARNING: generator p99 lateness %.2f ms exceeds 5 ms; the open loop did not hold its schedule\n", late)
	}

	health, err := svc.client.Health(ctx)
	t.record(err)
	if err == nil {
		put("obslog.dropped", "count", float64(health.JournalDropped))
	}
	var render []float64
	var size int
	for range max(1, int(50*cfg.scale)) {
		t0 := now()
		text, err := svc.client.Metrics(ctx)
		render = append(render, ms(now()-t0))
		size = len(text)
		if err != nil {
			t.record(err)
			break
		}
	}
	put("metrics.render_ms.p50", "ms", pct(render, 50))
	put("metrics.bytes", "B", float64(size))

	rp := &replay{scale: cfg.scale, spans: spans, t: t, put: put}
	if cfg.w.grid == nil {
		var err error
		_, local.instPerS, local.cellMs, err = localCampaign(derivedCampaign(cfg.w, jobs, cfg.scale), "local-jobs", spans)
		t.record(err)
	}
	rp.campaignReplay(local.instPerS, local.cellMs, win.throughput())
	if rj, err := replayJobs(cfg.w, cfg.seed, jobs, cfg.scale); err != nil {
		t.record(err)
	} else {
		rp.arenaReplay(rj)
	}
	rp.engineReplay(cfg.seed)
	rp.serverReplay(cfg.w, cfg.seed, jobs, dir)
	rp.obslogReplay(dir)

	self, errs := selfTimes(spans.spans)
	for _, err := range errs {
		t.record(err)
	}
	printSpanTable(cfg.log, spans.spans, self)
	if cfg.spansPath != "" {
		if err := spans.write(cfg.spansPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// internalSpec converts a client campaign spec to the campaign layer's.
func internalSpec(s leanconsensus.CampaignSpec) campaign.Spec {
	return campaign.Spec{
		Name: s.Name, Models: s.Models, Dists: s.Dists, Adversaries: s.Adversaries,
		Ns: s.Ns, Seeds: s.Seeds, Reps: s.Reps,
	}
}

// sameReport compares a served report with a local one byte for byte in
// their JSON encodings.
func sameReport(served *leanconsensus.CampaignReport, local *campaign.Report) error {
	a, err := json.Marshal(served)
	if err != nil {
		return err
	}
	b, err := json.Marshal(local)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return errors.New("served report differs from the local run")
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (ru_maxrss is
// in KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// printSpanTable lists, per span name, the count and the median duration
// and self time in milliseconds.
func printSpanTable(w io.Writer, spans []span, self map[int]int64) {
	type agg struct{ dur, self []float64 }
	byName := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.dur = append(a.dur, ms(s.End-s.Start))
		a.self = append(a.self, ms(self[s.Span]))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "e2ebench: %-22s %7s %12s %12s\n", "span", "count", "p50 ms", "self p50 ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "e2ebench: %-22s %7d %12.4f %12.4f\n", n, len(a.dur), pct(a.dur, 50), pct(a.self, 50))
	}
}
