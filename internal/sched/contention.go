package sched

import "math"

// Contention models memory contention (Section 10, "Synchronization and
// contention"): operations on recently-busy registers incur extra delay.
// Each register carries an exponentially-decaying load; executing an
// operation bumps the target's load by one, and scheduling an operation
// adds Penalty × (current load of its target register) to its delay.
//
// The paper speculates that contention, by slowing laggards who fight
// over congested early-round registers while leaders sail through
// clear late-round ones, actually helps the algorithm disperse.
// Experiment E14 measures that hypothesis.
type Contention struct {
	// HalfLife is the time for a register's load to decay by half.
	HalfLife float64
	// Penalty is the extra delay per unit of load on the target register.
	Penalty float64
}

// contentionState tracks decaying per-register loads.
type contentionState struct {
	model Contention
	decay float64 // ln 2 / HalfLife
	load  []float64
	last  []float64
}

func newContentionState(model Contention) *contentionState {
	return &contentionState{
		model: model,
		decay: math.Ln2 / model.HalfLife,
	}
}

// ensure grows the tracking arrays to cover register id.
func (c *contentionState) ensure(id int) {
	for len(c.load) <= id {
		c.load = append(c.load, 0)
		c.last = append(c.last, 0)
	}
}

// current returns the decayed load of a register at time t.
func (c *contentionState) current(id int, t float64) float64 {
	c.ensure(id)
	dt := t - c.last[id]
	if dt < 0 {
		dt = 0
	}
	return c.load[id] * math.Exp(-c.decay*dt)
}

// bump records one access to a register at time t.
func (c *contentionState) bump(id int, t float64) {
	c.ensure(id)
	c.load[id] = c.current(id, t) + 1
	c.last[id] = t
}

// penalty returns the extra delay for an operation targeting a register
// when scheduled at time t.
func (c *contentionState) penalty(id int, t float64) float64 {
	return float64(c.model.Penalty * c.current(id, t))
}
