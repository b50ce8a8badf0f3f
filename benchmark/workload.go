package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"leanconsensus"
	"leanconsensus/internal/xrand"
)

// workload is one fixed traffic mix. A job workload (grid == nil) is an
// open loop: jobs arrive on a seeded schedule whatever the service does.
// A campaign workload is a closed loop: one client submits the next
// campaign once the previous report is in hand.
type workload struct {
	name string
	why  string

	// Job workloads.
	sizes [3]int // instances per job, drawn at the 70/25/5 % mix
	// durable arms StateDir and JournalDir, in fresh directories, and runs
	// a 2 Hz operator poll beside the load.
	durable bool

	// Campaign workloads: the grid of every campaign; Seeds is filled per
	// campaign from the workload seed.
	grid *leanconsensus.CampaignSpec
}

// workloads is the fixed set. The names are part of BENCHMARK.json.
var workloads = []*workload{
	{
		name:  "jobs-mixed",
		why:   "interactive path: one arena and per-instance Submit per job, slot wait behind 5000-instance jobs sets p99; no msgnet, no persistence",
		sizes: [3]int{100, 1000, 5000},
	},
	{
		name:    "jobs-durable",
		why:     "same arrivals with 1/100 the work and durable state and journal on: admission, record fsync, journal store and encoding dominate, beside a 2 Hz operator poll",
		sizes:   [3]int{1, 10, 50},
		durable: true,
	},
	{
		name: "campaign-sweep",
		why:  "bulk research path: 9 batched cells of sched and hybrid up to n=64 per campaign, one request every ~0.3 s, so job-path and persistence work should not move it",
		grid: &leanconsensus.CampaignSpec{
			Models: []string{"sched", "hybrid"},
			Dists:  []string{"exponential", "uniform"},
			Ns:     []int{4, 16, 64},
			Reps:   1000,
		},
	},
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (*workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// Stream identifiers for the seeded generators, so every input family
// draws from its own reproducible stream of the workload seed.
const (
	streamArrivals = 0x6172726976 // "arriv"
	streamWarmup   = 0x7761726d   // "warm"
	streamCampaign = 0x63616d70   // "camp"
	streamReplay   = 0x7265706c   // "repl"
)

// jobInput is one generated job: when it is due, as an offset from the
// start of the window, and what it asks for.
type jobInput struct {
	due  time.Duration
	spec leanconsensus.JobSpec
}

// jobSpec builds the workload's job spec: sched, n=8, exponential noise,
// tenants a and b alternating.
func jobSpec(i, instances int, seed uint64) leanconsensus.JobSpec {
	tenant := "a"
	if i%2 == 1 {
		tenant = "b"
	}
	return leanconsensus.JobSpec{
		Model: "sched", Dist: "exponential", N: 8,
		Seed: seed, Instances: instances, Tenant: tenant,
	}
}

// The size mix is drawn per block of 20 jobs: 14 small, 5 medium and 1
// large, shuffled. Every run then offers exactly the 70/25/5 % mix, with
// the large jobs spread evenly over the window, so seeds vary the order
// and the arrival times but not the offered work.
const mixBlock = 20

var mixCounts = [3]int{14, 5, 1}

// jobRate is the open loops' offered load in jobs per second.
const jobRate = 60

// jobs generates the open-loop schedule of one window: jobRate×window
// jobs whose arrival times are a Poisson process conditioned on that
// count (sorted uniform draws over the window).
func (w *workload) jobs(seed uint64, window time.Duration) []jobInput {
	rng := xrand.New(seed, streamArrivals)
	count := int(math.Round(jobRate * window.Seconds()))
	dues := make([]time.Duration, count)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	var sizes []int
	for len(sizes) < count {
		var block []int
		for k, c := range mixCounts {
			for range c {
				block = append(block, w.sizes[k])
			}
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		sizes = append(sizes, block...)
	}
	out := make([]jobInput, count)
	for i := range out {
		out[i] = jobInput{due: dues[i], spec: jobSpec(i, sizes[i], rng.Uint64())}
	}
	return out
}

// warmupCounts is the warm-up's fixed composition: 50 jobs at 70/26/4 %.
var warmupCounts = [3]int{35, 13, 2}

// warmupJobs is the set-up's 50 closed-loop jobs of the workload's mix,
// in seeded order.
func (w *workload) warmupJobs(seed uint64) []leanconsensus.JobSpec {
	rng := xrand.New(seed, streamWarmup)
	var sizes []int
	for k, c := range warmupCounts {
		for range c {
			sizes = append(sizes, w.sizes[k])
		}
	}
	rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
	out := make([]leanconsensus.JobSpec, len(sizes))
	for i, n := range sizes {
		out[i] = jobSpec(i, n, rng.Uint64())
	}
	return out
}

// campaign returns the i-th campaign of a run: the workload grid with one
// cell seed derived from the workload seed. Index -1 is the warm-up.
func (w *workload) campaign(seed uint64, i int) leanconsensus.CampaignSpec {
	spec := *w.grid
	spec.Name = w.name
	spec.Seeds = []uint64{xrand.Mix(seed, streamCampaign, uint64(i+1))}
	return spec
}
