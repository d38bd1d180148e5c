package core

import "fmt"

// Test-only helpers over the Tracker interface.

// trackerShape returns the line and context counts a tracker covers.
func trackerShape(tr Tracker) (lines, contexts int) {
	switch tr := tr.(type) {
	case *SecArray:
		return tr.lines, tr.contexts
	case *LimitedTracker:
		return tr.lines, tr.contexts
	}
	panic(fmt.Sprintf("trackerShape: unknown tracker %T", tr))
}

// saveColumn returns a fresh copy of ctx's s-bit column.
func saveColumn(tr Tracker, ctx int) SecVec {
	lines, _ := trackerShape(tr)
	v := make(SecVec, VecWords(lines))
	tr.SaveColumnInto(ctx, v)
	return v
}

// Bit reports whether line's bit is set in the vector.
func (v SecVec) Bit(line int) bool {
	if v == nil {
		return false
	}
	return v[line/64]>>(uint(line%64))&1 == 1
}
