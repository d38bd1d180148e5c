package kernel

import (
	"timecache/internal/cache"
	"timecache/internal/mem"
	"timecache/internal/sim"
)

// procEnv implements sim.Env for the process currently running on a core.
// It routes memory traffic through the hierarchy under the core's hardware
// context, charges latencies to the core clock, and dispatches syscalls to
// the kernel.
type procEnv struct {
	k    *Kernel
	cpu  *coreState
	proc *Process
}

var (
	_ sim.Env     = (*procEnv)(nil)
	_ sim.Toucher = (*procEnv)(nil)
)

func (e *procEnv) Now() uint64 { return e.cpu.clock.Now() }

func (e *procEnv) Tick(n uint64) { e.cpu.clock.Advance(n) }

func (e *procEnv) Instret(n uint64) {
	e.proc.Stats.Instructions += n
	e.cpu.sliceInstrs += n
}

// TLB geometry. The TLB is per core and direct-mapped; tlbEntries is a
// power of two comfortably above the ~150 pages a workload keeps hot (its
// code, libc text and data, the stream head and the working set).
const (
	tlbBits    = 8
	tlbEntries = 1 << tlbBits
	// tlbWrite marks an entry valid for writes; it lives in the low bit of
	// the page-aligned physical base.
	tlbWrite = 1
)

// tlbEntry caches one translation.
type tlbEntry struct {
	vpage uint64 // vaddr >> PageShift, +1 so the zero value is invalid
	pte   uint64 // physical page base | tlbWrite when valid for writes
}

// tlbSlot hashes a virtual page to its TLB slot. Every workload region
// starts at a multiple of 256 pages, so indexing by the page's low bits
// would put the first pages of code, libc, stream and working set on the
// same slots; a Fibonacci hash spreads both the regions and any run of
// consecutive pages across the table.
func tlbSlot(vp uint64) uint64 { return (vp * 0x9E3779B97F4A7C15) >> (64 - tlbBits) }

// flushTLB empties c's TLB and binds it to as at its current version.
func (c *coreState) flushTLB(as *AddressSpace) {
	c.tlb = [tlbEntries]tlbEntry{}
	c.tlbAS = as
	if as != nil {
		c.tlbVer = as.version
	}
}

// translate resolves a virtual address through the core's TLB. The TLB is
// host-only state: it holds only what AddressSpace.Translate returned for
// the same address space at the same page-table version (a read-only
// Translate has no side effects, and a write entry is cached only once the
// write has broken COW), so a hit is exactly the Translate call it skips.
func (e *procEnv) translate(vaddr uint64, write bool) uint64 {
	c, as := e.cpu, e.proc.AS
	if c.tlbAS != as || c.tlbVer != as.version {
		c.flushTLB(as)
	}
	vp := vaddr >> mem.PageShift
	slot := &c.tlb[tlbSlot(vp)]
	if slot.vpage == vp+1 && (!write || slot.pte&tlbWrite != 0) {
		return slot.pte&^tlbWrite | vaddr&(mem.PageSize-1)
	}
	pa, brokeCOW, err := as.Translate(vaddr, write)
	if err != nil {
		panic(&procFault{err})
	}
	if brokeCOW {
		c.clock.Advance(e.k.cfg.MinorFaultCycles)
		e.k.Stats.COWBreaks++
	}
	if c.tlbVer != as.version {
		// A write that cleared a COW mark changed the page table.
		c.flushTLB(as)
	}
	pte := pa &^ (mem.PageSize - 1)
	if write {
		pte |= tlbWrite
	}
	*slot = tlbEntry{vpage: vp + 1, pte: pte}
	return pa
}

// procFault carries a fatal process error (page fault, protection violation)
// out of the Env methods; the scheduler recovers it and kills the process.
type procFault struct{ err error }

func (e *procEnv) access(vaddr uint64, kind cache.Kind) uint64 {
	write := kind == cache.Store
	pa := e.translate(vaddr, write)
	r := &e.cpu.req
	r.Now, r.Ctx, r.Addr, r.Kind = e.cpu.clock.Now(), e.cpu.ctx, pa, kind
	e.k.hier.Serve(r)
	e.cpu.clock.Advance(r.Latency)
	return pa
}

func (e *procEnv) Fetch(vaddr uint64) { e.access(vaddr, cache.Fetch) }

func (e *procEnv) Load(vaddr uint64) uint64 {
	pa := e.access(vaddr, cache.Load)
	return e.k.phys.ReadU64(pa &^ 7)
}

// Touch implements sim.Toucher: the access Load makes, without reading the
// word from physical memory.
func (e *procEnv) Touch(vaddr uint64) { e.access(vaddr, cache.Load) }

func (e *procEnv) Store(vaddr uint64, v uint64) {
	pa := e.access(vaddr, cache.Store)
	e.k.phys.WriteU64(pa&^7, v)
}

func (e *procEnv) Flush(vaddr uint64) {
	pa := e.translate(vaddr, false)
	r := &e.cpu.req
	r.Now, r.Ctx, r.Addr = e.cpu.clock.Now(), e.cpu.ctx, pa
	e.k.hier.ServeFlush(r)
	e.cpu.clock.Advance(r.Latency)
}

func (e *procEnv) Syscall(num, arg uint64) uint64 {
	return e.k.syscall(e.cpu, e.proc, num, arg)
}
