// Per-job resource accounting: where a job's simulated work went, summed
// over every machine run (leg) it dispatched. The job service attaches one
// ResourceAccount per job and surfaces the snapshot in the result JSON and
// on /metrics; cmd/reproduce can write the same snapshot with -resources.
// The counters come from the same kernel/hierarchy stats the experiment
// tables are reduced from, so an HTTP job and an equivalent CLI run report
// byte-identical numbers.
package harness

import "sync/atomic"

// Resources is a point-in-time snapshot of a ResourceAccount: total
// simulated work across all accounted legs. SBitDelayedLoads is the paper's
// leakage-relevant counter — accesses to resident lines that TimeCache
// delayed because the per-process s-bit was clear (summed over L1I, L1D,
// and LLC).
type Resources struct {
	Legs             uint64 `json:"legs"`
	SimCycles        uint64 `json:"sim_cycles"`
	Instructions     uint64 `json:"instructions"`
	L1IAccesses      uint64 `json:"l1i_accesses"`
	L1DAccesses      uint64 `json:"l1d_accesses"`
	LLCAccesses      uint64 `json:"llc_accesses"`
	ContextSwitches  uint64 `json:"context_switches"`
	SBitDelayedLoads uint64 `json:"sbit_delayed_loads"`
}

// Add returns the element-wise sum (used when aggregating jobs).
func (r Resources) Add(o Resources) Resources {
	return Resources{
		Legs:             r.Legs + o.Legs,
		SimCycles:        r.SimCycles + o.SimCycles,
		Instructions:     r.Instructions + o.Instructions,
		L1IAccesses:      r.L1IAccesses + o.L1IAccesses,
		L1DAccesses:      r.L1DAccesses + o.L1DAccesses,
		LLCAccesses:      r.LLCAccesses + o.LLCAccesses,
		ContextSwitches:  r.ContextSwitches + o.ContextSwitches,
		SBitDelayedLoads: r.SBitDelayedLoads + o.SBitDelayedLoads,
	}
}

// ResourceAccount accumulates Resources across concurrent sweep legs. All
// adds are atomic, so one account may be shared by every worker of a
// parallel sweep; the zero value is ready to use.
type ResourceAccount struct {
	legs             atomic.Uint64
	simCycles        atomic.Uint64
	instructions     atomic.Uint64
	l1iAccesses      atomic.Uint64
	l1dAccesses      atomic.Uint64
	llcAccesses      atomic.Uint64
	contextSwitches  atomic.Uint64
	sbitDelayedLoads atomic.Uint64
}

// add charges one completed machine run from a counter snapshot of the
// kernel's whole-run totals (from cold Reset to now, warmup included — these
// are resource counters, not steady-state measurements).
func (a *ResourceAccount) add(m measurement) {
	if a == nil {
		return
	}
	a.legs.Add(1)
	a.simCycles.Add(m.cycles)
	a.instructions.Add(m.instrs)
	a.l1iAccesses.Add(m.l1i.Accesses)
	a.l1dAccesses.Add(m.l1d.Accesses)
	a.llcAccesses.Add(m.llc.Accesses)
	a.contextSwitches.Add(m.kern.ContextSwitches)
	a.sbitDelayedLoads.Add(m.l1i.FirstAccess + m.l1d.FirstAccess + m.llc.FirstAccess)
}

// AddLeg charges a leg that has no kernel to read counters from (the
// security experiment's attack runs own their machines internally); only
// the leg count advances.
func (a *ResourceAccount) AddLeg() {
	if a == nil {
		return
	}
	a.legs.Add(1)
}

// Snapshot returns the current totals. It may be called while legs are
// still running; each counter is individually consistent.
func (a *ResourceAccount) Snapshot() Resources {
	if a == nil {
		return Resources{}
	}
	return Resources{
		Legs:             a.legs.Load(),
		SimCycles:        a.simCycles.Load(),
		Instructions:     a.instructions.Load(),
		L1IAccesses:      a.l1iAccesses.Load(),
		L1DAccesses:      a.l1dAccesses.Load(),
		LLCAccesses:      a.llcAccesses.Load(),
		ContextSwitches:  a.contextSwitches.Load(),
		SBitDelayedLoads: a.sbitDelayedLoads.Load(),
	}
}
