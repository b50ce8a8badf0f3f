package sched

import "math"

// This file implements the "statistical adversary" extension sketched in
// Section 10: instead of bounding every single delay by M, only the
// running total is constrained — Σ_{j<=r} Δ_ij <= r·M. Such an adversary
// can bank budget during quiet periods and release it in one large burst,
// the pathology the paper's proof of Theorem 12 cannot handle (Lemma 9's
// application breaks); the paper conjectures termination remains O(log n).
// Experiment E12 measures exactly that.

// BudgetAntiLeader is a statistical adversary: it spends nothing on
// processes in the pack, banks the per-step allowance M for every process,
// and whenever a process becomes the unique leader it dumps that process's
// entire banked budget on its next step. Within the cumulative constraint
// this is the most leader-hostile burst pattern available.
type BudgetAntiLeader struct {
	// M is the per-step allowance (the budget grows by M per operation).
	M float64

	spent map[int]float64
	steps map[int]int64
}

// NewBudgetAntiLeader returns a budgeted anti-leader adversary with the
// given per-step allowance.
func NewBudgetAntiLeader(m float64) *BudgetAntiLeader {
	return &BudgetAntiLeader{
		M:     m,
		spent: make(map[int]float64),
		steps: make(map[int]int64),
	}
}

// StartDelay implements Adversary.
func (a *BudgetAntiLeader) StartDelay(int) float64 { return 0 }

// StepDelay implements Adversary.
func (a *BudgetAntiLeader) StepDelay(i int, j int64, v View) float64 {
	a.steps[i] = j
	budget := float64(float64(j)*a.M) - a.spent[i]
	if budget <= 0 || v == nil {
		return 0
	}
	leader, round := v.Leader()
	if leader != i || round < 2 {
		return 0
	}
	// Only burst on a UNIQUE leader; bursting into a tied pack wastes
	// budget without protecting the race.
	for p := 0; p < v.N(); p++ {
		if p != i && !v.Decided(p) && !v.Halted(p) && v.Round(p) >= round {
			return 0
		}
	}
	a.spent[i] += budget
	return budget
}

// Bound implements Adversary. Bursts are bounded only by the accumulated
// budget, which grows without limit; the engine's per-delay validation is
// therefore satisfied with an infinite bound. The cumulative constraint
// Σ Δ_ij <= j·M is enforced by construction and can be audited with
// CheckBudget.
func (a *BudgetAntiLeader) Bound() float64 { return math.Inf(1) }

// CheckBudget verifies the cumulative constraint for every process; it
// returns the worst observed ratio spent/(steps*M) (must be <= 1).
func (a *BudgetAntiLeader) CheckBudget() float64 {
	worst := 0.0
	for i, spent := range a.spent {
		steps := a.steps[i]
		if steps == 0 {
			continue
		}
		if r := spent / (float64(steps) * a.M); r > worst {
			worst = r
		}
	}
	return worst
}

// Interface compliance check.
var _ Adversary = (*BudgetAntiLeader)(nil)
