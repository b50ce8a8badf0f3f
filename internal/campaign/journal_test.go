package campaign

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"leanconsensus/internal/obslog"
)

// journalSpec is a small 3-axis grid: 2 dists × 2 ns × 1 seed = 4 cells.
func journalSpec() Spec {
	return Spec{
		Name:  "journal",
		Dists: []string{"exponential", "uniform"},
		Ns:    []int{2, 4},
		Reps:  5,
	}
}

// TestJournalCorrelatesCells verifies the correlation chain: every
// cell.done carries the campaign's correlation ID as Parent plus the
// cell's full workload axes, every checkpoint chains to the campaign,
// and the private arena's drain chains to it too.
func TestJournalCorrelatesCells(t *testing.T) {
	c, err := journalSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	j := obslog.New(64)
	const corr = "c-000042"
	manifest := filepath.Join(t.TempDir(), "j.ckpt")
	if _, err := c.Run(context.Background(), Config{
		Shards: 2, Workers: 1,
		Journal: j, Correlation: corr,
		Checkpoint: manifest,
	}); err != nil {
		t.Fatal(err)
	}

	evs, _ := j.Since(0, nil)
	byKind := map[obslog.Kind][]obslog.Event{}
	for _, e := range evs {
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}

	cells := byKind[obslog.KindCellDone]
	if len(cells) != len(c.Cells) {
		t.Fatalf("journaled %d cell.done events for %d cells", len(cells), len(c.Cells))
	}
	wantKeys := map[string]int{} // key -> cell index
	for i, cell := range c.Cells {
		wantKeys[cell.Key] = i
	}
	for _, e := range cells {
		i, ok := wantKeys[e.ID]
		if !ok {
			t.Fatalf("cell.done for unknown cell %q", e.ID)
		}
		if e.Parent != corr {
			t.Fatalf("cell %q chains to %q, want %q", e.ID, e.Parent, corr)
		}
		job := c.Cells[i].Job
		l := e.Labels
		if l.Model != job.ModelName || l.Dist != job.DistName || l.Adversary != job.AdvName ||
			l.N != job.N || l.Count != int64(job.Instances) {
			t.Fatalf("cell %q labels = %+v, want axes of %+v", e.ID, l, job)
		}
	}

	ckpts := byKind[obslog.KindCheckpoint]
	if len(ckpts) != len(c.Cells) {
		t.Fatalf("journaled %d checkpoint events for %d cell completions", len(ckpts), len(c.Cells))
	}
	for i, e := range ckpts {
		if e.ID != corr || e.Labels.Detail != manifest {
			t.Fatalf("checkpoint event %d = %+v, want ID %q detail %q", i, e, corr, manifest)
		}
		if e.Labels.Count != int64(i+1) {
			t.Fatalf("checkpoint %d holds %d cells, want %d", i, e.Labels.Count, i+1)
		}
	}

	drains := byKind[obslog.KindArenaDrain]
	if len(drains) != 1 || drains[0].Parent != corr {
		t.Fatalf("arena.drain events = %+v, want one chained to %q", drains, corr)
	}
	if want := c.Instances; drains[0].Labels.Count != want {
		t.Fatalf("arena.drain count = %d, want %d proposals", drains[0].Labels.Count, want)
	}
}

// TestJournalResumeEvent verifies a resumed campaign journals one
// campaign.resume carrying the restored cell count.
func TestJournalResumeEvent(t *testing.T) {
	c, err := journalSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "j.ckpt")
	if _, err := c.Run(context.Background(), Config{Checkpoint: manifest}); err != nil {
		t.Fatal(err)
	}
	j := obslog.New(64)
	if _, err := c.Run(context.Background(), Config{
		Checkpoint: manifest, Resume: true,
		Journal: j, Correlation: "c-000043",
	}); err != nil {
		t.Fatal(err)
	}
	evs, _ := j.Since(0, nil)
	var resumes, cellDones int
	for _, e := range evs {
		switch e.Kind {
		case obslog.KindResume:
			resumes++
			if e.ID != "c-000043" || e.Labels.Count != int64(len(c.Cells)) || e.Labels.Detail != manifest {
				t.Fatalf("resume event = %+v, want %d cells from %q", e, len(c.Cells), manifest)
			}
		case obslog.KindCellDone:
			cellDones++
		}
	}
	if resumes != 1 {
		t.Fatalf("journaled %d resume events, want 1", resumes)
	}
	if cellDones != 0 {
		t.Fatalf("fully restored campaign journaled %d cell.done events, want 0", cellDones)
	}
}

// TestJournalDoesNotAffectReport pins the byte-identity acceptance
// criterion: a journaled run's report is byte-for-byte the silent run's
// report.
func TestJournalDoesNotAffectReport(t *testing.T) {
	c, err := journalSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	silent, err := c.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := obslog.New(16) // small ring: wrapping must not matter either
	journaled, err := c.Run(context.Background(), Config{Journal: j, Correlation: "c-000001"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Seq() == 0 {
		t.Fatal("journal saw no events")
	}
	sb, err := silent.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := journaled.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, jb) {
		t.Fatal("journaled report differs from silent report")
	}
}
