package defense

import (
	"timecache/internal/cache"
	"timecache/internal/core"
)

// FASE-style selective flushing (arXiv:2204.05508): at each context switch
// the switching core's private caches are walked and every line not owned
// by the incoming process is invalidated, so a resumed attacker finds none
// of the victim's lines to observe while keeping its own working set warm
// (unlike flush-on-switch, which discards everything). The shared LLC is
// left alone, as in the proposal's per-core scope.
//
// Ownership is tracked per (core, line): the per-access hook stamps the
// accessed line with the PID currently running on the accessing core, and
// the switch hook evicts the core's L1 lines whose stamp differs from the
// incoming PID, visiting lines in cache index order (deterministic). A stamp
// is keyed by physical line number, not by cache slot, so it survives the
// line's eviction and refill. Lines resident but never demand-accessed
// since fill (next-line prefetches) carry no stamp and are flushed
// conservatively. With SMT the stamp is the core's most recently
// switched-in PID, a model simplification the SMT attack scenario measures.
// The switch charge uses core.SelectiveFlushCost: a fixed walk setup plus a
// small per-invalidated-line increment.
type faseDefense struct {
	h *cache.Hierarchy
	// cur is the PID most recently switched in on each core (0 before the
	// first switch).
	cur []int32
	// owner holds, per core and physical line number, the last PID that
	// touched the line on that core; 0 means none (PIDs start at 1). Each
	// core's table grows on demand to the highest line it accessed.
	owner [][]int32
}

func newFASE(h *cache.Hierarchy) cache.Defense {
	return &faseDefense{
		h:     h,
		cur:   make([]int32, h.Config().Cores),
		owner: make([][]int32, h.Config().Cores),
	}
}

func (d *faseDefense) Name() string { return FASE }

func (d *faseDefense) OnAccess(r *cache.Request) {
	corei := d.h.CoreOf(r.Ctx)
	pid := d.cur[corei]
	if pid == 0 {
		return // no process has been switched in yet (cold boot accesses)
	}
	own, line := d.owner[corei], int(r.Addr>>cache.LineShift)
	if line >= len(own) {
		own = append(own, make([]int32, line+1-len(own))...)
		d.owner[corei] = own
	}
	own[line] = pid
}

func (d *faseDefense) OnSwitch(corei, outPID, inPID int, now uint64) uint64 {
	if inPID == 0 {
		return 0 // deschedule with nothing incoming: defer to the next switch-in
	}
	d.cur[corei] = int32(inPID)
	in, own := int32(inPID), d.owner[corei]
	flushed := d.h.EvictCoreL1(corei, func(lineAddr uint64) bool {
		line := int(lineAddr >> cache.LineShift)
		return line < len(own) && own[line] == in
	})
	return core.SelectiveFlushCost(flushed)
}

func (d *faseDefense) Reset() {
	clear(d.cur)
	for c := range d.owner {
		d.owner[c] = d.owner[c][:0]
	}
}

func (d *faseDefense) CopyFrom(src cache.Defense) {
	s, ok := src.(*faseDefense)
	if !ok {
		panic("defense: fase CopyFrom from a different defense kind")
	}
	copy(d.cur, s.cur)
	for c := range d.owner {
		d.owner[c] = append(d.owner[c][:0], s.owner[c]...)
	}
}
