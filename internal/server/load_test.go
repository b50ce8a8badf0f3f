package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"leanconsensus"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/server"
	"leanconsensus/internal/stats"
)

// Shape of BenchmarkSharedArenaLoad's legs.
const (
	loadSmallJobs      = 40     // small jobs per leg=small iteration
	loadSmallInstances = 50     // instances per small job
	loadPairInstances  = 20_000 // instances per leg=pair job
)

// loadCampaign is the campaign the small jobs run beside: 160 cells of
// 500 sched n=16 instances, about 5 ms of work each. On 2 vCPUs it runs
// for about 0.7 s, and the small jobs are all done within 0.4 s.
var loadCampaign = leanconsensus.CampaignSpec{
	Name:   "load",
	Models: []string{"sched"},
	Dists:  []string{"exponential"},
	Ns:     []int{16},
	Seeds:  loadSeeds(160),
	Reps:   500,
}

// loadSeeds returns the seeds 1..n.
func loadSeeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// BenchmarkSharedArenaLoad runs two units at once on the server's one
// arena (MaxConcurrentJobs 2), on 1×1 and 2×1 pools, and times them from
// the journal's timestamps, never from client polling:
//   - leg=small submits sched n=8 jobs of 50 instances one after another
//     beside a running campaign and reports the p50 and p90 of their
//     job.admit → job.done latency in ms; it fails if the campaign
//     finishes before the last small job does;
//   - leg=pair runs two 20,000-instance jobs at once and reports inst/s
//     from the first job.admit to the last job.done.
func BenchmarkSharedArenaLoad(b *testing.B) {
	for _, pool := range [][2]int{{1, 1}, {2, 1}} {
		name := fmt.Sprintf("pool=%dx%d", pool[0], pool[1])
		b.Run(name+"/leg=small", func(b *testing.B) {
			client, jl := loadServer(b, pool[0], pool[1])
			ctx := context.Background()
			var lat []float64
			for i := 0; i < b.N; i++ {
				cpos := jl.Seq()
				cid, err := client.SubmitCampaign(ctx, loadCampaign)
				if err != nil {
					b.Fatal(err)
				}
				pos := cpos
				var lastDone int64
				for k := 0; k < loadSmallJobs; k++ {
					id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{
						Model: "sched", Dist: "exponential", N: 8, Seed: uint64(k + 1), Instances: loadSmallInstances,
					})
					if err != nil {
						b.Fatal(err)
					}
					admit, done := jl.await(&pos, obslog.KindJobAdmit, obslog.KindJobDone, id)
					lat = append(lat, float64(done-admit)/1e6)
					lastDone = done
				}
				if _, end := jl.await(&cpos, obslog.KindCampaignStart, obslog.KindCampaignDone, cid); end < lastDone {
					b.Fatalf("campaign %s finished %.1f ms before the last small job: grow loadCampaign",
						cid, float64(lastDone-end)/1e6)
				}
			}
			b.ReportMetric(stats.Percentile(lat, 50), "p50-ms")
			b.ReportMetric(stats.Percentile(lat, 90), "p90-ms")
		})
		b.Run(name+"/leg=pair", func(b *testing.B) {
			client, jl := loadServer(b, pool[0], pool[1])
			ctx := context.Background()
			var span time.Duration
			for i := 0; i < b.N; i++ {
				ids := make([]string, 2)
				var wg sync.WaitGroup
				var errs [2]error
				pos := jl.Seq()
				for k := range ids {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ids[k], errs[k] = client.SubmitJobs(ctx, leanconsensus.JobSpec{
							Model: "sched", Dist: "exponential", N: 8, Seed: uint64(k + 1), Instances: loadPairInstances,
						})
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				first, last := int64(0), int64(0)
				for _, id := range ids {
					from := pos
					admit, done := jl.await(&from, obslog.KindJobAdmit, obslog.KindJobDone, id)
					if first == 0 || admit < first {
						first = admit
					}
					last = max(last, done)
				}
				span += time.Duration(last - first)
			}
			b.ReportMetric(float64(2*loadPairInstances*b.N)/span.Seconds(), "inst/s")
		})
	}
}

// loadJournal is a server's journal with a wake-up subscription.
type loadJournal struct {
	*obslog.Journal
	sub *obslog.Sub
}

// loadServer boots a server of the given pool with two execution slots
// and returns a client and the server's journal.
func loadServer(b *testing.B, shards, workers int) (*leanconsensus.Client, loadJournal) {
	b.Helper()
	srv, err := server.New(server.Config{Shards: shards, Workers: workers, MaxConcurrentJobs: 2, JournalCapacity: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	jl := loadJournal{Journal: srv.Journal(), sub: srv.Journal().Subscribe()}
	b.Cleanup(func() {
		jl.sub.Unsubscribe()
		srv.Close()
		ts.Close()
	})
	return leanconsensus.NewClient(ts.URL), jl
}

// await reads the journal from *pos on until it has seen the events of
// kinds start and end about id, advances *pos past them, and returns
// their timestamps.
func (jl loadJournal) await(pos *uint64, start, end obslog.Kind, id string) (startTS, endTS int64) {
	var evs []obslog.Event
	for endTS == 0 {
		evs, *pos = jl.Since(*pos, evs[:0])
		for _, e := range evs {
			switch {
			case e.ID != id:
			case e.Kind == start:
				startTS = e.TS
			case e.Kind == end:
				endTS = e.TS
			}
		}
		if endTS == 0 {
			<-jl.sub.C()
		}
	}
	return startTS, endTS
}
