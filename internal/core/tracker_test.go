package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func limCfg(k int) Config {
	return Config{TimestampBits: 32, MaxSharers: k}
}

func TestNewTrackerSelectsImplementation(t *testing.T) {
	if _, ok := NewTracker(DefaultConfig(), 8, 4).(*SecArray); !ok {
		t.Fatal("MaxSharers=0 must build the full-map SecArray")
	}
	if _, ok := NewTracker(limCfg(2), 8, 4).(*LimitedTracker); !ok {
		t.Fatal("MaxSharers>0 must build the LimitedTracker")
	}
}

func TestLimitedBasicVisibility(t *testing.T) {
	tr := NewLimitedTracker(limCfg(2), 8, 4)
	tr.OnFill(3, 1, 100)
	if !tr.Visible(3, 1) {
		t.Fatal("filler must be visible")
	}
	for _, c := range []int{0, 2, 3} {
		if tr.Visible(3, c) {
			t.Fatalf("context %d must not see another's fill", c)
		}
	}
	tr.OnFirstAccess(3, 2)
	if !tr.Visible(3, 2) || !tr.Visible(3, 1) {
		t.Fatal("two sharers fit in two slots")
	}
	tr.OnEvict(3)
	for c := 0; c < 4; c++ {
		if tr.Visible(3, c) {
			t.Fatal("evict must clear all")
		}
	}
}

func TestLimitedOverflowEvictsSafely(t *testing.T) {
	tr := NewLimitedTracker(limCfg(2), 4, 8)
	tr.OnFill(0, 0, 1)
	tr.OnFirstAccess(0, 1)
	tr.OnFirstAccess(0, 2) // overflow: one of {0,1} loses its slot
	if tr.Visible(0, 0) == tr.Visible(0, 1) {
		t.Fatalf("contexts 0/1 visible = %v/%v, want exactly one evicted by the overflow",
			tr.Visible(0, 0), tr.Visible(0, 1))
	}
	if !tr.Visible(0, 2) {
		t.Fatal("newly added sharer must be visible")
	}
	visible := 0
	for c := 0; c < 8; c++ {
		if tr.Visible(0, c) {
			visible++
		}
	}
	if visible != 2 {
		t.Fatalf("%d contexts visible, slots hold 2", visible)
	}
}

func TestLimitedSaveRestore(t *testing.T) {
	tr := NewLimitedTracker(limCfg(2), 130, 4)
	tr.OnFill(0, 1, 10)
	tr.OnFill(77, 1, 11)
	tr.OnFill(129, 1, 12)
	v := saveColumn(tr, 1)
	if !v.Bit(0) || !v.Bit(77) || !v.Bit(129) || v.Bit(1) {
		t.Fatal("saved column wrong")
	}
	tr.RestoreColumn(1, nil, 0, 0)
	if tr.Visible(0, 1) {
		t.Fatal("clear failed")
	}
	tr.RestoreColumn(1, v, 20, 30)
	for _, line := range []int{0, 77, 129} {
		if !tr.Visible(line, 1) {
			t.Fatalf("line %d not restored", line)
		}
	}
	// Line refilled after Ts must stay invisible.
	tr.OnEvict(77)
	tr.OnFill(77, 0, 200)
	v = saveColumn(tr, 1)
	tr.RestoreColumn(1, v, 100, 300)
	if tr.Visible(77, 1) {
		t.Fatal("refilled line (Tc > Ts) must stay invisible")
	}
	if !tr.Visible(0, 1) {
		t.Fatal("unchanged line must be restored")
	}
}

func TestLimitedRollover(t *testing.T) {
	cfg := Config{TimestampBits: 8, MaxSharers: 2}
	tr := NewLimitedTracker(cfg, 4, 2)
	tr.OnFill(0, 0, 250)
	tr.OnFill(1, 0, 10) // Tc < Ts: a comparison alone would keep it visible
	v := saveColumn(tr, 0)
	tr.RestoreColumn(0, v, 250, 260) // wrap at 8 bits
	if tr.Visible(0, 0) {
		t.Fatal("rollover must reset restored visibility")
	}
	if tr.Visible(1, 0) {
		t.Fatal("rollover restore kept line 1 (Tc < Ts): the comparison ran instead of the rollover reset")
	}
}

// The safety property: against a full-map shadow, the limited tracker may
// show FEWER visible (line, ctx) pairs — never more. Extra invisibility
// costs performance; extra visibility would break the defense.
func TestLimitedNeverExceedsFullMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const lines, ctxs = 16, 8
		full := NewSecArray(Config{TimestampBits: 32}, lines, ctxs)
		lim := NewLimitedTracker(Config{TimestampBits: 32, MaxSharers: 2}, lines, ctxs)
		now := uint64(1)
		for op := 0; op < 400; op++ {
			now++
			line, ctx := rng.Intn(lines), rng.Intn(ctxs)
			switch rng.Intn(3) {
			case 0:
				full.OnFill(line, ctx, now)
				lim.OnFill(line, ctx, now)
			case 1:
				full.OnFirstAccess(line, ctx)
				lim.OnFirstAccess(line, ctx)
			case 2:
				full.OnEvict(line)
				lim.OnEvict(line)
			}
			for l := 0; l < lines; l++ {
				for c := 0; c < ctxs; c++ {
					if lim.Visible(l, c) && !full.Visible(l, c) {
						return false // limited granted visibility full map denies
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

func TestLimitedTrackerBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaxSharers > contexts must panic")
		}
	}()
	NewLimitedTracker(limCfg(8), 4, 4)
}
