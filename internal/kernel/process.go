package kernel

import (
	"timecache/internal/cache"
	"timecache/internal/core"
	"timecache/internal/sim"
)

// ProcState is a process's scheduler state.
type ProcState int

// Process states.
const (
	Ready ProcState = iota
	Running
	Sleeping
	Exited
)

func (s ProcState) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Sleeping:
		return "sleeping"
	case Exited:
		return "exited"
	}
	return "unknown"
}

// ProcStats accumulates per-process accounting.
type ProcStats struct {
	// Instructions retired by the process.
	Instructions uint64
	// CPUCycles is the time the process spent scheduled.
	CPUCycles uint64
	// FinishedAt is the core clock when the process exited (0 if running).
	FinishedAt uint64
	// Switches counts times the process was scheduled in.
	Switches uint64
}

// Process is a schedulable program instance.
type Process struct {
	PID  int
	Name string
	Core int // core affinity (fixed at spawn)

	AS   *AddressSpace
	Proc sim.Proc

	State  ProcState
	wakeAt uint64

	// Ts is the process's preemption timestamp (full width); the paper's
	// "context-switch timestamp" saved by software.
	Ts uint64
	// everRan marks that saved s-bit columns exist; a process that never
	// ran restores an all-zero caching context.
	everRan bool
	// saved holds the process's s-bit column per cache, written at
	// preemption and consumed at resumption. A process saves columns for
	// at most a handful of caches (its core's L1I/L1D plus shared levels),
	// so a linearly scanned slice beats a map on the switch path.
	saved []savedColumn

	// ExitCode is the SysExit argument (VM programs) or 0.
	ExitCode uint64
	// Err records a fault that killed the process.
	Err error

	Stats ProcStats
}

// savedColumn pairs a cache with the process's saved s-bit column for it.
type savedColumn struct {
	cache *cache.Cache
	buf   core.SecVec
}

// savedBuf returns the process's saved-column buffer for c, allocating it on
// the first save against that cache and reusing it thereafter.
func (p *Process) savedBuf(c *cache.Cache) core.SecVec {
	for i := range p.saved {
		if p.saved[i].cache == c {
			return p.saved[i].buf
		}
	}
	buf := make(core.SecVec, core.VecWords(c.Lines()))
	p.saved = append(p.saved, savedColumn{cache: c, buf: buf})
	return buf
}

// savedFor returns the process's saved column for c, or nil if it has never
// been saved against that cache.
func (p *Process) savedFor(c *cache.Cache) core.SecVec {
	for i := range p.saved {
		if p.saved[i].cache == c {
			return p.saved[i].buf
		}
	}
	return nil
}
