package engine

// RunBatch executes reps repetitions of one spec template through a
// single session, reseeding the spec in place: repetition rep runs with
// spec.Seed = seed(rep) and everything else — key, N, inputs, noise,
// adversary — held fixed. seed(rep) is called immediately before
// repetition rep runs, and results are delivered to fn in repetition
// order on the caller's goroutine.
//
// This is the cell-batched hot path: where a per-instance arena Submit
// pays a request materialization, a queue hop, and a result-channel hop
// per repetition, RunBatch pays them zero times — the whole batch is one
// tight loop over the pooled session, so steady-state repetitions
// allocate nothing (TestRunBatchZeroAllocs pins this down). Outcomes
// are bit-identical to running the same seeds one at a time: the
// session contract already guarantees no state leaks between runs.
//
// spec.Inputs is borrowed for the duration of the batch and must not
// alias session scratch that the model overwrites. A nil s runs the
// batch on a private session, which still amortizes setup across reps.
func RunBatch(m Model, spec Spec, s *Session, reps int, seed func(rep int) uint64, fn func(rep int, r Result, err error)) {
	if s == nil {
		s = NewSession()
	}
	for rep := 0; rep < reps; rep++ {
		spec.Seed = seed(rep)
		r, err := m.Run(spec, s)
		fn(rep, r, err)
	}
}
