package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/harness"
	"leanconsensus/internal/msgnet"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/obslog/store"
	"leanconsensus/internal/server"
	"leanconsensus/internal/stats"
	"leanconsensus/internal/xrand"
)

// The replays run after the timed window, in traced runs only. Each one
// hands the workload's own generated inputs to the public functions of
// one lower layer, with no service around it, and times that layer
// alone. Sizes are the full-scale counts; a scale below 1 shrinks them.

// replay carries what every layer replay needs.
type replay struct {
	scale float64
	spans *spanLog
	t     *tally
	put   func(name, unit string, v float64)
}

// n scales a full-size count, keeping at least one.
func (r *replay) n(full int) int { return max(1, int(float64(full)*r.scale)) }

// pct is the p-th percentile of samples (linear interpolation).
func pct(samples []float64, p float64) float64 { return stats.Percentile(samples, p) }

// us converts a nanosecond interval to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// replayJobs is the arena-layer input: up to 50 of the workload's job
// specs, resolved. Job workloads sample them from the window's schedule;
// campaign workloads use the first campaign's cells.
func replayJobs(w *workload, seed uint64, jobs []jobInput, scale float64) ([]engine.Job, error) {
	if w.grid != nil {
		c, err := internalSpec(w.campaign(seed, 0)).Resolve()
		if err != nil {
			return nil, err
		}
		out := make([]engine.Job, len(c.Cells))
		for i, cell := range c.Cells {
			out[i] = cell.Job
			out[i].Instances = max(1, int(float64(out[i].Instances)*scale))
		}
		return out, nil
	}
	rng := xrand.New(seed, streamReplay)
	perm := rng.Perm(len(jobs))
	out := make([]engine.Job, 0, 50)
	for _, i := range perm[:min(50, len(perm))] {
		s := jobs[i].spec
		jb, err := engine.JobSpec{Model: s.Model, Dist: s.Dist, N: s.N, Seed: s.Seed,
			Instances: max(1, int(float64(s.Instances)*scale))}.Resolve()
		if err != nil {
			return nil, err
		}
		out = append(out, jb)
	}
	return out, nil
}

// arenaReplay serves each spec on a fresh arena through per-instance
// Submit, as the job path does, then all of them as cells through
// RunCells, as the campaign path does.
func (r *replay) arenaReplay(jobs []engine.Job) {
	var newClose, lat []float64
	var submitNs, instances int64
	for i, jb := range jobs {
		id := fmt.Sprintf("arena-%02d", i)
		t0 := now()
		a, err := arena.New(arena.Config{
			Shards: shards, Workers: workers, N: jb.N, Noise: jb.Noise, Model: jb.Model, Adversary: jb.Adversary, Seed: jb.Seed,
		})
		if err != nil {
			r.t.record(fmt.Errorf("arena replay %s: %w", id, err))
			continue
		}
		t1 := now()
		bits := xrand.New(jb.Seed, 0x6c6f6164) // "load", the stream the job path draws bits from
		chans := make([]<-chan arena.Result, 0, jb.Instances)
		for k := range jb.Instances {
			ch, err := a.Submit(fmt.Sprintf("key-%08d", k), bits.Intn(2))
			if err != nil {
				r.t.record(fmt.Errorf("arena replay %s submit: %w", id, err))
				break
			}
			chans = append(chans, ch)
		}
		var failed error
		for _, ch := range chans {
			res := <-ch
			if res.Err != nil && failed == nil {
				failed = fmt.Errorf("arena replay %s: %w", id, res.Err)
			}
			lat = append(lat, float64(res.Latency.Nanoseconds())/1e3)
		}
		t2 := now()
		a.Close() //nolint:errcheck // always nil
		t3 := now()
		r.t.record(failed)
		root := r.spans.add(id, 0, "arena.job", t0, t3)
		r.spans.add(id, root, "arena.new", t0, t1)
		r.spans.add(id, root, "arena.submit_all", t1, t2)
		r.spans.add(id, root, "arena.close", t2, t3)
		newClose = append(newClose, us(t1-t0+t3-t2))
		submitNs += t2 - t1
		instances += int64(len(chans))
	}
	r.put("arena.new_close_us.p50", "us", pct(newClose, 50))
	r.put("arena.instance_us.p50", "us", pct(lat, 50))
	r.put("arena.instance_us.p99", "us", pct(lat, 99))
	r.put("arena.submit_inst_s", "inst/s", float64(instances)/(float64(submitNs)/1e9))

	a, err := arena.New(arena.Config{Shards: shards, Workers: workers})
	if err != nil {
		r.t.record(fmt.Errorf("arena cell replay: %w", err))
		return
	}
	sinks := make([]campaign.CellStats, len(jobs))
	var cellErr error
	t0 := now()
	err = a.RunCells(context.Background(), len(jobs), func(i int) arena.CellRequest {
		jb := jobs[i]
		return arena.CellRequest{
			Model: jb.Model, Key: fmt.Sprintf("arena-%02d", i), N: jb.N, Noise: jb.Noise, Adversary: jb.Adversary,
			Reps: jb.Instances, Seed: func(rep int) uint64 { return campaign.InstanceSeed(jb.Seed, jb.N, rep) },
			Sink: &sinks[i],
		}
	}, func(i int, res arena.CellResult) {
		if res.Errors != 0 && cellErr == nil {
			cellErr = fmt.Errorf("arena cell replay %s: %w", res.Key, res.FirstErr)
		}
	})
	t1 := now()
	a.Close() //nolint:errcheck // always nil
	if err == nil {
		err = cellErr
	}
	r.t.record(err)
	r.spans.add("arena-cells", 0, "arena.cells", t0, t1)
	var cellInstances int64
	for i := range sinks {
		cellInstances += sinks[i].Reps
	}
	r.put("arena.cell_inst_s", "inst/s", float64(cellInstances)/(float64(t1-t0)/1e9))
}

// engineCases are the pooled-session replays: the models and sizes the
// workloads run, and msgnet, which no workload runs (see the package
// comment); sched and hybrid at 2000 instances, msgnet at 200.
var engineCases = []struct {
	model    string
	n, count int
}{
	{"sched", 8, 2000},
	{"sched", 64, 2000},
	{"hybrid", 64, 2000},
	{"msgnet", 4, 200},
	{"msgnet", 8, 200},
}

// engineReplay runs each case back to back on one pooled engine.Session,
// with the workload's seeds and the paper's half-and-half inputs, and
// counts time, allocations and operations per instance. The msgnet n=8
// case runs once more through msgnet.Sim to count messages.
func (r *replay) engineReplay(seed uint64) {
	base := xrand.Mix(seed, streamReplay)
	for _, c := range engineCases {
		key := fmt.Sprintf("engine.%s.n%d", c.model, c.n)
		m, err := engine.ByName(c.model)
		if err != nil {
			r.t.record(err)
			continue
		}
		spec := engine.Spec{Key: key, N: c.n, Inputs: harness.HalfInputs(c.n)}
		if !engine.IgnoresNoise(m) {
			spec.Noise = dist.Exponential{MeanVal: 1}
		}
		sess := engine.NewSession()
		count := r.n(c.count)
		seedOf := func(rep int) uint64 { return campaign.InstanceSeed(base, c.n, rep) }
		// One unmeasured run materializes the session's pooled buffers.
		engine.RunBatch(m, spec, sess, 1, seedOf, func(int, engine.Result, error) {})
		var ops int64
		var failed error
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := now()
		engine.RunBatch(m, spec, sess, count, seedOf, func(rep int, res engine.Result, err error) {
			if err != nil && failed == nil {
				failed = err
			}
			ops += res.Ops
		})
		t1 := now()
		runtime.ReadMemStats(&m1)
		r.t.record(failed)
		r.spans.add(key, 0, "engine.run", t0, t1)
		r.put(key+".us_per_inst", "us", us(t1-t0)/float64(count))
		r.put(key+".allocs_per_inst", "allocs/inst", float64(m1.Mallocs-m0.Mallocs)/float64(count))
		r.put(key+".ops_per_inst", "ops/inst", float64(ops)/float64(count))
	}

	const n = 8
	sim := msgnet.NewSim()
	cfg := msgnet.ConsensusConfig{Inputs: harness.HalfInputs(n), Delay: dist.Exponential{MeanVal: 1}}
	count := r.n(200)
	var msgs int64
	var failed error
	t0 := now()
	for rep := range count {
		cfg.Seed = campaign.InstanceSeed(base, n, rep)
		res, err := sim.Run(cfg)
		if err != nil {
			failed = err
			break
		}
		msgs += res.Messages
	}
	t1 := now()
	r.t.record(failed)
	r.spans.add("engine.msgnet.n8.sim", 0, "msgnet.run", t0, t1)
	r.put("engine.msgnet.n8.msgs_per_inst", "msgs/inst", float64(msgs)/float64(count))
	r.put("engine.msgnet.n8.ns_per_msg", "ns", float64(t1-t0)/float64(max(msgs, 1)))
}

// localCampaign runs a campaign spec in-process through campaign.Run on
// the server's pool shape, with spans around the run and each cell. It
// returns the report and the run's throughput and per-cell latencies.
func localCampaign(spec campaign.Spec, id string, spans *spanLog) (*campaign.Report, float64, []float64, error) {
	c, err := spec.Resolve()
	if err != nil {
		return nil, 0, nil, err
	}
	type cell struct{ start, end int64 }
	var cells []cell
	var cellMs []float64
	t0 := now()
	rep, err := c.Run(context.Background(), campaign.Config{
		Shards: shards, Workers: workers,
		OnCell: func(p campaign.Progress) {
			end := now()
			cells = append(cells, cell{end - p.CellLatency.Nanoseconds(), end})
			cellMs = append(cellMs, float64(p.CellLatency.Nanoseconds())/1e6)
		},
	})
	t1 := now()
	if err != nil {
		return nil, 0, nil, err
	}
	root := spans.add(id, 0, "campaign.run", t0, t1)
	for _, cl := range cells {
		// Cell latency is measured on the monotonic clock; clamping keeps
		// the reconstructed interval inside its run.
		start, end := spans.clamp(root, cl.start, cl.end)
		spans.add(id, root, "campaign.cell", start, end)
	}
	return rep, float64(c.Instances) / (float64(t1-t0) / 1e9), cellMs, nil
}

// campaignReplay reports the local campaign run: its throughput, its
// median cell latency, and the share of that throughput the service does
// not deliver end to end.
func (r *replay) campaignReplay(instPerS float64, cellMs []float64, e2eThroughput float64) {
	r.put("campaign.inst_per_s", "inst/s", instPerS)
	r.put("campaign.cell_ms.p50", "ms", pct(cellMs, 50))
	r.put("campaign.service_overhead_frac", "fraction", 1-e2eThroughput/instPerS)
}

// derivedCampaign is the local campaign of a job workload: its job shape
// (sched, exponential, n=8) over four of its job seeds, 1000 repetitions
// each.
func derivedCampaign(w *workload, jobs []jobInput, scale float64) campaign.Spec {
	spec := campaign.Spec{
		Name: w.name, Models: []string{"sched"}, Dists: []string{"exponential"}, Ns: []int{8},
		Reps: max(1, int(1000*scale)),
	}
	for _, j := range jobs[:min(4, len(jobs))] {
		spec.Seeds = append(spec.Seeds, j.spec.Seed)
	}
	return spec
}

// serverReplay times the admission path without a network: decoding the
// workload's own request body, and whole POSTs through the server's
// handler via httptest on fresh servers with durable state off and on.
func (r *replay) serverReplay(w *workload, seed uint64, jobs []jobInput, dir string) {
	path, body, tiny := "/v1/jobs", []byte(nil), []byte(nil)
	if w.grid != nil {
		path = "/v1/campaigns"
		spec := w.campaign(seed, 0)
		body = mustJSON(spec)
		spec.Reps = 1
		tiny = mustJSON(spec)
	} else {
		s := jobs[0].spec
		body = mustJSON(map[string]any{"jobs": []any{s}})
		s.Instances = 1
		tiny = mustJSON(map[string]any{"jobs": []any{s}})
	}

	count := r.n(200)
	var decode []float64
	for range count {
		t0 := now()
		var err error
		if w.grid != nil {
			_, err = campaign.DecodeSpec(bytes.NewReader(body))
		} else {
			_, err = server.DecodeSubmit(bytes.NewReader(body), server.DefaultMaxBatch)
		}
		decode = append(decode, us(now()-t0))
		if err != nil {
			r.t.record(fmt.Errorf("decode replay: %w", err))
			break
		}
	}
	r.put("server.decode_us.p50", "us", pct(decode, 50))

	var p50 [2]float64
	for i, durable := range []bool{false, true} {
		cfg := serverConfig()
		name := "state-off"
		if durable {
			cfg.StateDir = filepath.Join(dir, "replay-state")
			name = "state-on"
		}
		srv, err := server.New(cfg)
		if err != nil {
			r.t.record(fmt.Errorf("server replay: %w", err))
			return
		}
		h := srv.Handler()
		var post []float64
		var failed error
		for k := range count {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(tiny))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			t0 := now()
			h.ServeHTTP(rec, req)
			t1 := now()
			r.spans.add(fmt.Sprintf("post-%s-%03d", name, k), 0, "server.post", t0, t1)
			post = append(post, us(t1-t0))
			if rec.Code != http.StatusAccepted && failed == nil {
				failed = fmt.Errorf("server replay POST %s: %d %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
			}
		}
		if err := srv.Close(); err != nil && failed == nil {
			failed = err
		}
		r.t.record(failed)
		p50[i] = pct(post, 50)
	}
	r.put("server.post_us.p50", "us", p50[0])
	r.put("server.persist_us.p50", "us", p50[1]-p50[0])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own plain structs always marshal
	}
	return b
}

// obslogReplay times the journal layer: appends to a ring, and batches
// of job.done events recorded into a segment store with one fsync each.
func (r *replay) obslogReplay(dir string) {
	j := obslog.New(0)
	labels := obslog.Labels{Model: "sched", Dist: "exponential", N: 8, Detail: "ok"}
	appends := r.n(100_000)
	t0 := now()
	for range appends {
		j.Append(obslog.KindJobDone, "j-000001", "", labels)
	}
	t1 := now()
	r.spans.add("obslog.append", 0, "obslog.append", t0, t1)
	r.put("obslog.append_ns", "ns", float64(t1-t0)/float64(appends))

	var fsync []float64
	st, err := store.Open(filepath.Join(dir, "replay-journal"), store.Options{
		OnFsync: func(d time.Duration) { fsync = append(fsync, float64(d.Nanoseconds())/1e6) },
	})
	if err != nil {
		r.t.record(fmt.Errorf("store replay: %w", err))
		return
	}
	batches, per := r.n(100), 10
	events := make([]obslog.Event, per)
	var failed error
	t0 = now()
	for b := range batches {
		for i := range events {
			seq := uint64(b*per + i + 1)
			events[i] = obslog.Event{Seq: seq, TS: now(), Kind: obslog.KindJobDone,
				ID: fmt.Sprintf("j-%06d", seq), Labels: labels}
		}
		if err := st.Record(events); err != nil {
			failed = err
			break
		}
	}
	if err := st.Close(); err != nil && failed == nil {
		failed = err
	}
	t1 = now()
	r.t.record(failed)
	r.spans.add("obslog.store", 0, "obslog.record", t0, t1)
	r.put("obslog.fsync_ms.p50", "ms", pct(fsync, 50))
	r.put("obslog.fsync_ms.p99", "ms", pct(fsync, 99))
}
