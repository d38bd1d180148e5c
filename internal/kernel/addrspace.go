// Package kernel is the software half of the simulation: processes with
// virtual address spaces, a per-core round-robin scheduler, the context
// switch bookkeeping that saves/restores TimeCache s-bit columns (paper
// §IV-C), syscalls, and KSM-style page deduplication.
package kernel

import (
	"fmt"
	"slices"

	"timecache/internal/mem"
)

// mapping describes one virtual page's backing.
type mapping struct {
	frame    mem.Frame
	writable bool
	// cow marks a writable mapping whose frame is shared and must be
	// copied on the first write.
	cow bool
	// shared marks pages backed by a named shared region (library text or
	// explicitly shared memory); dedup never merges into or out of these,
	// and COW does not apply.
	shared bool
}

// AddressSpace is a per-process page table.
type AddressSpace struct {
	phys  *mem.Physical
	pages map[uint64]*mapping // keyed by vaddr >> PageShift
	// version increments on every table change so cached translations
	// (the Env's TLB) can be invalidated.
	version uint64
}

// NewAddressSpace creates an empty address space over phys.
func NewAddressSpace(phys *mem.Physical) *AddressSpace {
	return &AddressSpace{phys: phys, pages: map[uint64]*mapping{}}
}

// MapAnon maps [vaddr, vaddr+size) to fresh zeroed private frames.
func (as *AddressSpace) MapAnon(vaddr, size uint64, writable bool) error {
	return as.mapRange(vaddr, size, func() (mem.Frame, error) { return as.phys.Alloc() },
		func(m *mapping) { m.writable = writable })
}

// MapShared maps [vaddr, vaddr+len(frames)*PageSize) to the given shared
// frames, taking a reference on each.
func (as *AddressSpace) MapShared(vaddr uint64, frames []mem.Frame, writable bool) error {
	if vaddr&(mem.PageSize-1) != 0 {
		return fmt.Errorf("kernel: unaligned mapping at %#x", vaddr)
	}
	for i, f := range frames {
		vp := (vaddr >> mem.PageShift) + uint64(i)
		if _, exists := as.pages[vp]; exists {
			return fmt.Errorf("kernel: page %#x already mapped", vp<<mem.PageShift)
		}
		as.phys.Ref(f)
		as.pages[vp] = &mapping{frame: f, writable: writable, shared: true}
	}
	as.version++
	return nil
}

func (as *AddressSpace) mapRange(vaddr, size uint64, alloc func() (mem.Frame, error), init func(*mapping)) error {
	if vaddr&(mem.PageSize-1) != 0 {
		return fmt.Errorf("kernel: unaligned mapping at %#x", vaddr)
	}
	npages := (size + mem.PageSize - 1) >> mem.PageShift
	for i := uint64(0); i < npages; i++ {
		vp := (vaddr >> mem.PageShift) + i
		if _, exists := as.pages[vp]; exists {
			return fmt.Errorf("kernel: page %#x already mapped", vp<<mem.PageShift)
		}
		f, err := alloc()
		if err != nil {
			return err
		}
		m := &mapping{frame: f}
		init(m)
		as.pages[vp] = m
	}
	as.version++
	return nil
}

// Translate resolves vaddr to a physical address. A write to a COW page
// copies the frame first and reports brokeCOW so the caller can charge a
// minor-fault latency.
func (as *AddressSpace) Translate(vaddr uint64, write bool) (pa uint64, brokeCOW bool, err error) {
	vp := vaddr >> mem.PageShift
	m, ok := as.pages[vp]
	if !ok {
		return 0, false, fmt.Errorf("kernel: page fault at %#x (unmapped)", vaddr)
	}
	if write {
		if !m.writable {
			return 0, false, fmt.Errorf("kernel: write to read-only page at %#x", vaddr)
		}
		if m.cow {
			if as.phys.Refs(m.frame) > 1 {
				nf, err := as.phys.CopyFrame(m.frame)
				if err != nil {
					return 0, false, err
				}
				as.phys.Unref(m.frame)
				m.frame = nf
				brokeCOW = true
			}
			m.cow = false
			as.version++
		}
	}
	return m.frame.Addr() | (vaddr & (mem.PageSize - 1)), brokeCOW, nil
}

// FrameAt returns the frame backing vaddr, for dedup and tests.
func (as *AddressSpace) FrameAt(vaddr uint64) (mem.Frame, bool) {
	m, ok := as.pages[vaddr>>mem.PageShift]
	if !ok {
		return 0, false
	}
	return m.frame, true
}

// anonPages iterates private anonymous pages in ascending virtual-page
// order, used by the dedup scanner. Shared-region pages are skipped (they
// are already deduplicated by construction and belong to a named region).
func (as *AddressSpace) anonPages(fn func(vp uint64, m *mapping)) {
	vps := make([]uint64, 0, len(as.pages))
	for vp, m := range as.pages {
		if !m.shared {
			vps = append(vps, vp)
		}
	}
	slices.Sort(vps)
	for _, vp := range vps {
		fn(vp, as.pages[vp])
	}
}
