package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newArr(t *testing.T, lines, ctxs int) *SecArray {
	t.Helper()
	return NewSecArray(DefaultConfig(), lines, ctxs)
}

func TestFillSetsOnlyFiller(t *testing.T) {
	s := newArr(t, 8, 4)
	s.OnFill(3, 1, 100)
	if !s.Visible(3, 1) {
		t.Fatal("filler must see its own fill")
	}
	for _, c := range []int{0, 2, 3} {
		if s.Visible(3, c) {
			t.Fatalf("context %d must not see another context's fill", c)
		}
	}
	if s.tc[3] != 100 {
		t.Fatalf("Tc = %d, want 100", s.tc[3])
	}
}

func TestRefillResetsOtherContexts(t *testing.T) {
	s := newArr(t, 8, 2)
	s.OnFill(0, 0, 10)
	s.OnFirstAccess(0, 1)
	if !s.Visible(0, 1) {
		t.Fatal("first access must grant visibility")
	}
	// Line evicted and refilled by context 0: context 1 loses visibility.
	s.OnEvict(0)
	s.OnFill(0, 0, 20)
	if s.Visible(0, 1) {
		t.Fatal("refill must reset other contexts' s-bits")
	}
}

func TestEvictClearsAll(t *testing.T) {
	s := newArr(t, 4, 3)
	s.OnFill(2, 0, 5)
	s.OnFirstAccess(2, 1)
	s.OnFirstAccess(2, 2)
	s.OnEvict(2)
	for c := 0; c < 3; c++ {
		if s.Visible(2, c) {
			t.Fatalf("context %d still visible after evict", c)
		}
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	s := newArr(t, 130, 2)
	s.OnFill(0, 0, 10)
	s.OnFill(77, 0, 11)
	s.OnFill(129, 0, 12)
	v := saveColumn(s, 0)
	if !v.Bit(0) || !v.Bit(77) || !v.Bit(129) || v.Bit(1) {
		t.Fatal("saved column does not match s-bits")
	}
	s.RestoreColumn(0, nil, 0, 0)
	if s.Visible(0, 0) {
		t.Fatal("clear column failed")
	}
	// Restore at a time after preemption with no newer fills: all bits back.
	s.RestoreColumn(0, v, 20, 30)
	for _, line := range []int{0, 77, 129} {
		if !s.Visible(line, 0) {
			t.Fatalf("line %d not restored", line)
		}
	}
}

func TestRestoreResetsNewerLines(t *testing.T) {
	s := newArr(t, 64, 2)
	s.OnFill(1, 0, 100)
	s.OnFill(2, 0, 100)
	v := saveColumn(s, 0)
	ts := uint64(150) // process preempted at 150

	// While preempted, line 2 is refilled (by ctx 1) at time 200 > Ts.
	s.OnEvict(2)
	s.OnFill(2, 1, 200)

	s.RestoreColumn(0, v, ts, 300)
	if !s.Visible(1, 0) {
		t.Fatal("line 1 unchanged since preemption must stay visible")
	}
	if s.Visible(2, 0) {
		t.Fatal("line 2 refilled after Ts must be invisible (Tc > Ts)")
	}
	// The comparison reset exactly that one s-bit: line 1 is the only line
	// the restored context sees.
	for line := 0; line < 64; line++ {
		if s.Visible(line, 0) != (line == 1) {
			t.Fatalf("line %d visible = %v after restore, want only line 1 visible", line, s.Visible(line, 0))
		}
	}
}

func TestRestoreEqualTimestampStaysVisible(t *testing.T) {
	// Tc == Ts means the fill happened no later than preemption: visible.
	s := newArr(t, 4, 1)
	s.OnFill(0, 0, 150)
	v := saveColumn(s, 0)
	s.RestoreColumn(0, v, 150, 160)
	if !s.Visible(0, 0) {
		t.Fatal("Tc == Ts must remain visible")
	}
}

func TestRestoreNilClearsColumn(t *testing.T) {
	s := newArr(t, 4, 2)
	s.OnFill(0, 0, 1)
	s.RestoreColumn(0, nil, 0, 10)
	if s.Visible(0, 0) {
		t.Fatal("nil restore (new process) must clear the column")
	}
}

func TestRolloverResetsAll(t *testing.T) {
	cfg := Config{TimestampBits: 8}
	s := NewSecArray(cfg, 4, 1)
	s.OnFill(0, 0, 250)
	s.OnFill(1, 0, 10) // Tc < Ts: a comparison alone would keep it visible
	v := saveColumn(s, 0)
	// Preempted at 250, resumed at 260: the 8-bit counter wrapped.
	s.RestoreColumn(0, v, 250, 260)
	if s.Visible(0, 0) {
		t.Fatal("rollover between Ts and resume must reset restored s-bits")
	}
	if s.Visible(1, 0) {
		t.Fatal("rollover restore kept line 1 (Tc < Ts): the comparison ran instead of the rollover reset")
	}
}

func TestNoRolloverFalseNegative(t *testing.T) {
	// Paper §VI-C third case: no rollover between Ts and resume, but an old
	// line can carry a bigger truncated Tc from a previous epoch; it gets an
	// unnecessary reset — safe, just an extra miss. Model: line filled at
	// full time 78 (epoch 0), process preempted at 256+102 (epoch 1),
	// resumed 256+105. Truncated Tc=78 < truncated Ts=102, so it survives —
	// but a line filled at 200 in epoch 0 (trunc 200 > 102) is reset
	// unnecessarily. Correctness (no stale visibility) must hold regardless.
	cfg := Config{TimestampBits: 8}
	s := NewSecArray(cfg, 2, 1)
	s.OnFill(0, 0, 78)
	s.OnFill(1, 0, 200)
	v := saveColumn(s, 0)
	s.RestoreColumn(0, v, 256+102, 256+105)
	if !s.Visible(0, 0) {
		t.Fatal("line with small truncated Tc survives")
	}
	if s.Visible(1, 0) {
		t.Fatal("line with large truncated Tc is reset (unnecessary but safe)")
	}
}

func TestGateLevelMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const lines = 64
		ref := NewSecArray(Config{TimestampBits: 16}, lines, 2)
		gate := NewSecArray(Config{TimestampBits: 16, GateLevel: true}, lines, 2)
		for line := 0; line < lines; line++ {
			tm := rng.Uint64() % 60000
			ref.OnFill(line, 0, tm)
			gate.OnFill(line, 0, tm)
		}
		v1, v2 := saveColumn(ref, 0), saveColumn(gate, 0)
		ts := rng.Uint64() % 60000
		ref.RestoreColumn(0, v1, ts, ts+1)
		gate.RestoreColumn(0, v2, ts, ts+1)
		for line := 0; line < lines; line++ {
			if ref.Visible(line, 0) != gate.Visible(line, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Invariant: a context is never granted visibility of a copy it has not
// touched. Random operation sequence against a shadow model.
func TestVisibilityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const lines, ctxs = 16, 4
		s := NewSecArray(Config{TimestampBits: 32}, lines, ctxs)
		// shadow[line][ctx]: has ctx seen the current copy?
		var shadow [lines][ctxs]bool
		now := uint64(1)
		for op := 0; op < 500; op++ {
			now++
			line := rng.Intn(lines)
			ctx := rng.Intn(ctxs)
			switch rng.Intn(3) {
			case 0:
				s.OnFill(line, ctx, now)
				for c := 0; c < ctxs; c++ {
					shadow[line][c] = c == ctx
				}
			case 1:
				s.OnFirstAccess(line, ctx)
				shadow[line][ctx] = true
			case 2:
				s.OnEvict(line)
				for c := 0; c < ctxs; c++ {
					shadow[line][c] = false
				}
			}
			for l := 0; l < lines; l++ {
				for c := 0; c < ctxs; c++ {
					if s.Visible(l, c) != shadow[l][c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSecVecBitNil(t *testing.T) {
	var v SecVec
	if v.Bit(0) || v.Bit(1000) {
		t.Fatal("nil SecVec has no bits set")
	}
}

func TestContextBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("65 contexts must panic")
		}
	}()
	NewSecArray(DefaultConfig(), 4, 65)
}
