package core

import "testing"

// TestExhaustiveSmallState model-checks the s-bit protocol: every sequence
// of operations up to a bounded depth on a tiny configuration (2 lines, 2
// contexts, 4 time steps between ops) is enumerated, and after every
// prefix two safety properties are checked against an independent
// specification:
//
//  1. Soundness: a context never sees a line copy it has not touched
//     (touched = filled it, or paid a first access since the fill).
//  2. The full-map and limited-pointer trackers agree on soundness — the
//     limited tracker's visible set is a subset of the full map's.
//
// Unlike the randomized property tests, this is exhaustive within its
// bounds: ~7^6 operation sequences, every interleaving included.
func TestExhaustiveSmallState(t *testing.T) {
	const (
		lines = 2
		ctxs  = 2
		depth = 6
	)
	type op struct {
		kind int // 0 fill, 1 firstAccess, 2 evict
		line int
		ctx  int
	}
	var ops []op
	for l := 0; l < lines; l++ {
		for c := 0; c < ctxs; c++ {
			ops = append(ops, op{0, l, c}, op{1, l, c})
		}
		ops = append(ops, op{2, l, 0})
	}

	// spec is the ground truth: has ctx touched the line's current copy?
	type spec [lines][ctxs]bool

	var run func(s *SecArray, lim *LimitedTracker, sp spec, now uint64, d int)
	checked := 0
	run = func(s *SecArray, lim *LimitedTracker, sp spec, now uint64, d int) {
		for l := 0; l < lines; l++ {
			for c := 0; c < ctxs; c++ {
				if s.Visible(l, c) != sp[l][c] {
					t.Fatalf("full map visibility diverges from spec at line %d ctx %d", l, c)
				}
				if lim.Visible(l, c) && !sp[l][c] {
					t.Fatalf("limited tracker grants unsound visibility at line %d ctx %d", l, c)
				}
			}
		}
		checked++
		if d == 0 {
			return
		}
		for _, o := range ops {
			// Clone the trackers and spec for this branch.
			s2 := NewSecArray(Config{TimestampBits: 32}, lines, ctxs)
			lim2 := NewLimitedTracker(Config{TimestampBits: 32, MaxSharers: 1}, lines, ctxs)
			// Rebuild by replay is expensive; instead snapshot via columns.
			for c := 0; c < ctxs; c++ {
				s2.RestoreColumn(c, saveColumn(s, c), 0, 0)
				lim2.RestoreColumn(c, saveColumn(lim, c), 0, 0)
			}
			// Copy timestamps so Restore semantics stay consistent.
			copy(s2.tc, s.tc)
			copy(lim2.tc, lim.tc)
			sp2 := sp
			switch o.kind {
			case 0:
				s2.OnFill(o.line, o.ctx, now)
				lim2.OnFill(o.line, o.ctx, now)
				for c := 0; c < ctxs; c++ {
					sp2[o.line][c] = c == o.ctx
				}
			case 1:
				s2.OnFirstAccess(o.line, o.ctx)
				lim2.OnFirstAccess(o.line, o.ctx)
				sp2[o.line][o.ctx] = true
			case 2:
				s2.OnEvict(o.line)
				lim2.OnEvict(o.line)
				for c := 0; c < ctxs; c++ {
					sp2[o.line][c] = false
				}
			}
			run(s2, lim2, sp2, now+1, d-1)
		}
	}

	s := NewSecArray(Config{TimestampBits: 32}, lines, ctxs)
	lim := NewLimitedTracker(Config{TimestampBits: 32, MaxSharers: 1}, lines, ctxs)
	run(s, lim, spec{}, 1, depth)
	if checked < 100_000 {
		t.Fatalf("exhaustive check covered only %d states; bounds too small", checked)
	}
}

// TestExhaustiveSaveRestore enumerates every (fill time, preempt time,
// refill time) ordering on one line and checks RestoreColumn grants
// visibility exactly when the line was untouched during the preemption.
func TestExhaustiveSaveRestore(t *testing.T) {
	for fill := uint64(1); fill <= 4; fill++ {
		for ts := uint64(1); ts <= 5; ts++ {
			for refill := uint64(0); refill <= 6; refill++ { // 0 = no refill
				s := NewSecArray(Config{TimestampBits: 32}, 1, 2)
				s.OnFill(0, 0, fill)
				if fill > ts {
					continue // the process could not have seen a future fill
				}
				v := saveColumn(s, 0)
				s.RestoreColumn(0, nil, 0, 0)
				if refill > 0 {
					s.OnEvict(0)
					s.OnFill(0, 1, refill)
				}
				now := uint64(10)
				s.RestoreColumn(0, v, ts, now)
				wantVisible := refill == 0 || refill <= ts
				if refill == 0 {
					// no refill: line still holds the copy ctx 0 saw
					wantVisible = true
				}
				if got := s.Visible(0, 0); got != wantVisible {
					t.Fatalf("fill=%d ts=%d refill=%d: visible=%v want %v",
						fill, ts, refill, got, wantVisible)
				}
			}
		}
	}
}
