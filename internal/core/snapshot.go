// Snapshot support: restoring one tracker's warm state into another built
// from the same configuration. Machine forking (internal/machine) uses this
// to clone the per-context s-bit columns and fill timestamps — the state the
// paper's context-switch save/restore operates on — without re-running the
// warmup that produced them.
package core

import "fmt"

// CopyFrom restores src's state into s. Both arrays must come from the same
// Config and geometry (machine snapshot and fork targets always do).
func (s *SecArray) CopyFrom(src *SecArray) {
	copy(s.cols, src.cols)
	copy(s.tc, src.tc)
	if s.arr != nil {
		// Rebuild the transposed gate-level SRAM mirror from the copied
		// timestamps. Latch state needs no copying: CompareGTInto resets
		// every SR latch before each comparison, and gtBuf is per-call
		// scratch.
		for line := 0; line < s.lines; line++ {
			s.arr.Store(line, s.tc[line])
		}
	}
}

// CopyFrom restores src's state into t. Both trackers must come from the
// same Config and geometry.
func (t *LimitedTracker) CopyFrom(src *LimitedTracker) {
	copy(t.slots, src.slots)
	copy(t.slotValid, src.slotValid)
	copy(t.tc, src.tc)
	t.clockHand = src.clockHand
}

// CopyTracker restores src's state into dst. The concrete types must match
// — NewTracker picks the implementation from Config alone, so two trackers
// built from one machine.Config always do. A package function with a type
// switch keeps the Tracker interface itself unchanged.
func CopyTracker(dst, src Tracker) {
	switch d := dst.(type) {
	case *SecArray:
		d.CopyFrom(src.(*SecArray))
	case *LimitedTracker:
		d.CopyFrom(src.(*LimitedTracker))
	default:
		panic(fmt.Sprintf("core: CopyTracker of unknown tracker %T", dst))
	}
}
