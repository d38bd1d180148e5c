// Snapshot support: restoring one kernel's complete runtime state —
// process table, scheduler position, per-core clocks, saved s-bit columns,
// and address spaces — into another kernel built from the same Config over
// a same-shape hierarchy and physical memory. Machine forking
// (internal/machine) composes this with Hierarchy.CopyFrom and
// Physical.CopyFrom to clone a warm machine.
package kernel

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/core"
	"timecache/internal/mem"
	"timecache/internal/sim"
)

// CopyFrom restores src's kernel state into k. Both kernels must be built
// from the same Config over hierarchies of the same shape; the caller
// (Machine.copyFrom) is responsible for also copying the hierarchy and
// physical memory, which this method does not touch. Pointer-valued state
// is remapped: cache pointers inside saved columns map positionally via
// Caches() order, cloned processes get cloned address spaces (preserving
// thread-sharing topology), and run-queue/current/previous slots point at
// the clones. src is only read — never mutated — so concurrent CopyFrom
// calls may share one frozen source.
//
// Every src process's Proc must implement sim.Forker; otherwise CopyFrom
// returns an error before modifying k.
func (k *Kernel) CopyFrom(src *Kernel) error {
	for _, sp := range src.procs {
		if _, ok := sp.Proc.(sim.Forker); !ok {
			return fmt.Errorf("kernel: process %q (%T) does not support snapshotting", sp.Name, sp.Proc)
		}
	}

	// Positional cache remap: both hierarchies enumerate Caches() in the
	// same construction order.
	srcCaches, dstCaches := src.hier.Caches(), k.hier.Caches()
	cmap := make(map[*cache.Cache]*cache.Cache, len(srcCaches))
	for i, c := range srcCaches {
		cmap[c] = dstCaches[i]
	}

	// Clone the process table. Address spaces are deduplicated through an
	// identity map so threads that share an AS in src share one clone in k.
	asMap := make(map[*AddressSpace]*AddressSpace)
	cloneAS := func(sas *AddressSpace) *AddressSpace {
		if sas == nil {
			return nil
		}
		if d, ok := asMap[sas]; ok {
			return d
		}
		d := &AddressSpace{
			phys:    k.phys,
			pages:   make(map[uint64]*mapping, len(sas.pages)),
			version: sas.version,
		}
		for vp, m := range sas.pages {
			mc := *m
			d.pages[vp] = &mc
		}
		asMap[sas] = d
		return d
	}
	pmap := make(map[*Process]*Process, len(src.procs))
	k.procs = k.procs[:0]
	for _, sp := range src.procs {
		p := &Process{}
		*p = *sp // flat fields: PID/Name/Core/State/wakeAt/Ts/everRan/ExitCode/Err/Stats
		p.Proc = sp.Proc.(sim.Forker).ForkProc()
		p.AS = cloneAS(sp.AS)
		// Deep-copy the saved s-bit columns, remapping their cache keys.
		// Read sp.saved directly — savedBuf would append to the source.
		p.saved = make([]savedColumn, len(sp.saved))
		for i, sc := range sp.saved {
			buf := make(core.SecVec, len(sc.buf))
			copy(buf, sc.buf)
			p.saved[i] = savedColumn{cache: cmap[sc.cache], buf: buf}
		}
		pmap[sp] = p
		k.procs = append(k.procs, p)
	}
	k.nextPID = src.nextPID

	// Scheduler position per core. secCaches/secLineCounts/switchCost are
	// construction invariants and req is per-access scratch; none change
	// after New, so they are not copied. The TLB is flushed: its entries
	// belong to k's old address spaces.
	for i, sc := range src.cores {
		dc := k.cores[i]
		dc.clock = sc.clock
		dc.runq = dc.runq[:0]
		for _, p := range sc.runq {
			dc.runq = append(dc.runq, pmap[p])
		}
		dc.cur = pmap[sc.cur] // pmap[nil] == nil
		dc.prev = pmap[sc.prev]
		dc.sliceEnd = sc.sliceEnd
		dc.sliceInstrs = sc.sliceInstrs
		dc.runStart = sc.runStart
		dc.flushTLB(nil)
	}

	// Kernel-level bookkeeping. Frame numbers are identical across
	// same-Config machines (allocation order is deterministic), so region
	// and kernel-text frame lists copy by value.
	clear(k.regions)
	for name, frames := range src.regions {
		k.regions[name] = append([]mem.Frame(nil), frames...)
	}
	k.kernelText = append(k.kernelText[:0], src.kernelText...)
	k.Stats = src.Stats
	k.probe = nil
	k.interrupted.Store(false)
	return nil
}
