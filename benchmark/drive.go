package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"leanconsensus"
)

// outcome is one unit of work — a job or a campaign — end to end.
type outcome struct {
	id        string
	instances int64
	latency   float64 // ms from due to result in hand
	end       int64   // wall ns when the result was in hand
	report    *leanconsensus.CampaignReport
	err       error
}

// tally counts the operations a run attempts and those that fail. Every
// failure is listed on the log as it happens.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(t.log, "e2ebench: FAILED:", err)
	}
}

// now is the benchmark's one clock: wall-clock Unix nanoseconds, the
// clock the service stamps its journal events with.
func now() int64 { return time.Now().UnixNano() }

// sleepUntil sleeps until the wall clock reaches t.
func sleepUntil(t int64) {
	for d := t - now(); d > 0; d = t - now() {
		time.Sleep(time.Duration(d))
	}
}

// ms converts a nanosecond interval to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// doJob submits one job, waits for its job.done on the stream, and
// fetches and checks its result. Latency counts from due, the moment the
// job was due to be sent, so a stall in the generator or the client
// counts against every job it delays.
func (s *service) doJob(ctx context.Context, spec leanconsensus.JobSpec, due int64, spans *spanLog) outcome {
	send := now()
	id, err := s.client.SubmitJobs(ctx, spec)
	submitted := now()
	if err != nil {
		return outcome{err: fmt.Errorf("submit job: %w", err)}
	}
	d, err := s.awaitDone(id)
	if err != nil {
		return outcome{id: id, err: err}
	}
	fetch := now()
	st, err := s.client.Job(ctx, id)
	end := now()
	if err == nil {
		err = checkJob(st, spec)
	}
	if err == nil && spans != nil {
		stage := s.events.stagesOf(id)
		err = spanUnit(spans, id, "job", due, send, submitted, fetch, end, stage.admit, stage.start, d)
	}
	if err != nil {
		return outcome{id: id, err: fmt.Errorf("job %s: %w", id, err)}
	}
	return outcome{id: id, instances: int64(spec.Instances), latency: ms(end - due), end: end}
}

// checkJob is the job correctness gate: done, one spec, every instance
// decided, no errors.
func checkJob(st *leanconsensus.JobStatus, spec leanconsensus.JobSpec) error {
	if st.Status != leanconsensus.JobDone {
		return fmt.Errorf("status %q: %s", st.Status, st.Error)
	}
	if len(st.Specs) != 1 || st.Specs[0].Result == nil {
		return fmt.Errorf("want one spec with a result, got %d specs", len(st.Specs))
	}
	r := st.Specs[0].Result
	if r.Instances != spec.Instances || r.N != spec.N || r.Seed != spec.Seed {
		return fmt.Errorf("result echoes instances=%d n=%d seed=%d, want %d, %d, %d",
			r.Instances, r.N, r.Seed, spec.Instances, spec.N, spec.Seed)
	}
	if r.Decided0+r.Decided1 != int64(spec.Instances) || r.Errors != 0 {
		return fmt.Errorf("decided %d+%d of %d instances with %d errors", r.Decided0, r.Decided1, spec.Instances, r.Errors)
	}
	return nil
}

// doCampaign submits one campaign, waits for its campaign.done, and
// fetches and checks its report.
func (s *service) doCampaign(ctx context.Context, spec leanconsensus.CampaignSpec, due int64, spans *spanLog) outcome {
	send := now()
	id, err := s.client.SubmitCampaign(ctx, spec)
	submitted := now()
	if err != nil {
		return outcome{err: fmt.Errorf("submit campaign: %w", err)}
	}
	d, err := s.awaitDone(id)
	if err != nil {
		return outcome{id: id, err: err}
	}
	fetch := now()
	st, err := s.client.Campaign(ctx, id)
	end := now()
	var instances int64
	if err == nil {
		instances, err = checkCampaign(st, spec)
	}
	if err == nil && spans != nil {
		// The service journals no event when a campaign takes its
		// execution slot, so the first completed cell stands in: a
		// campaign's slot wait includes its first cell's run.
		stage := s.events.stagesOf(id)
		err = spanUnit(spans, id, "campaign", due, send, submitted, fetch, end, stage.admit, stage.firstCell, d)
	}
	if err != nil {
		return outcome{id: id, err: fmt.Errorf("campaign %s: %w", id, err)}
	}
	return outcome{id: id, instances: instances, latency: ms(end - due), end: end, report: st.Report}
}

// checkCampaign is the campaign correctness gate: done, and every cell's
// repetitions decided with no errors or violations. It returns the
// instances the report covers.
func checkCampaign(st *leanconsensus.CampaignStatus, spec leanconsensus.CampaignSpec) (int64, error) {
	if st.Status != leanconsensus.JobDone || st.Report == nil {
		return 0, fmt.Errorf("status %q without a report: %s", st.Status, st.Error)
	}
	var total int64
	for _, c := range st.Report.Cells {
		if c.Reps != int64(spec.Reps) || c.Decided0+c.Decided1 != c.Reps || c.Errors != 0 ||
			c.AgreementViolations != 0 || c.ValidityViolations != 0 || c.Undecided != 0 {
			return 0, fmt.Errorf("cell %s n=%d: %d+%d of %d decided, %d errors", c.Model, c.N, c.Decided0, c.Decided1, c.Reps, c.Errors)
		}
		total += c.Reps
	}
	if total != st.InstancesTotal || total == 0 {
		return 0, fmt.Errorf("report covers %d instances, status says %d", total, st.InstancesTotal)
	}
	return total, nil
}

// spanUnit records one unit's root span and its six children. mid is the
// journal timestamp that ends the slot wait and starts the run.
func spanUnit(spans *spanLog, id, name string, due, send, submitted, fetch, end, admit, mid int64, d doneEvent) error {
	if admit == 0 || mid == 0 {
		return fmt.Errorf("journal stream missed the admission or start event")
	}
	root := spans.add(id, 0, name, due, end)
	spans.add(id, root, "gen.lag", due, send)
	spans.add(id, root, "client.submit", send, submitted)
	spans.add(id, root, "server.slot_wait", admit, mid)
	spans.add(id, root, "server.run", mid, d.ts)
	spans.add(id, root, "notify", d.ts, d.recv)
	spans.add(id, root, "client.fetch", fetch, end)
	return nil
}

// openLoop sends every job at its due time, whatever the service does,
// and waits for all of them. It returns the window's start.
func (s *service) openLoop(ctx context.Context, jobs []jobInput, spans *spanLog) (int64, []outcome) {
	start := now()
	out := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for i, in := range jobs {
		due := start + int64(in.due)
		sleepUntil(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = s.doJob(ctx, in.spec, due, spans)
		}()
	}
	wg.Wait()
	return start, out
}

// closedLoop runs campaigns one after another until the window has
// passed; each is due the moment the previous report is in hand.
func (s *service) closedLoop(ctx context.Context, w *workload, seed uint64, window time.Duration, spans *spanLog) (int64, []outcome) {
	start := now()
	due := start
	var out []outcome
	for i := 0; now()-start < int64(window); i++ {
		out = append(out, s.doCampaign(ctx, w.campaign(seed, i), due, spans))
		due = now()
	}
	return start, out
}

// operatorPoll reads /healthz, /metrics and the job.done events at 2 Hz
// on the request connection until stop closes. A health report with
// journal drops counts as a failure: the durable journal has a gap.
func (s *service) operatorPoll(ctx context.Context, stop <-chan struct{}, t *tally) {
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	var since uint64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		h, err := s.client.Health(ctx)
		if err == nil && h.JournalDropped != 0 {
			err = fmt.Errorf("journal dropped %d events", h.JournalDropped)
		}
		t.record(err)
		_, err = s.client.Metrics(ctx)
		t.record(err)
		page, err := s.client.QueryEvents(ctx, leanconsensus.EventQuery{Since: since, Kind: "job.done"})
		if err == nil {
			since = page.Next
		}
		t.record(err)
	}
}

// warmUp runs the set-up's closed-loop work: 50 jobs of the workload's
// mix, or one campaign.
func (s *service) warmUp(ctx context.Context, w *workload, seed uint64) error {
	if w.grid != nil {
		return s.doCampaign(ctx, w.campaign(seed, -1), now(), nil).err
	}
	for _, spec := range w.warmupJobs(seed) {
		if o := s.doJob(ctx, spec, now(), nil); o.err != nil {
			return o.err
		}
	}
	return nil
}
