package core

import (
	"fmt"
	"math/bits"

	"timecache/internal/clock"
)

// Tracker is the per-cache TimeCache security state abstraction. Two
// implementations exist:
//
//   - SecArray: the paper's design, one s-bit per hardware context per line
//     (n bits/line for n contexts).
//   - LimitedTracker: the §VI-C scaling proposal — limited pointers as in
//     coherence directories [Agarwal et al., ISCA'88], tracking at most k
//     sharers per line in k·log2(n) bits. Overflow is resolved
//     conservatively: an existing sharer is evicted and will pay an extra
//     first-access miss. Security never weakens; only performance can.
type Tracker interface {
	// Visible reports whether ctx has seen the line's resident copy.
	Visible(line, ctx int) bool
	// OnFill records a fill by ctx at time now, resetting other contexts.
	OnFill(line, ctx int, now clock.Cycles)
	// OnFirstAccess records that ctx has paid the first-access delay.
	OnFirstAccess(line, ctx int)
	// OnEvict clears all visibility for an evicted/invalidated line.
	OnEvict(line int)
	// SaveColumnInto writes ctx's visibility into dst (the software save),
	// which must have VecWords(lines) words, without allocating. Frequent
	// switchers keep one buffer per (process, cache) and reuse it across
	// switches.
	SaveColumnInto(ctx int, dst SecVec)
	// RestoreColumn installs a saved column, reconciling against Tc/Ts; a
	// nil column clears all of ctx's visibility.
	RestoreColumn(ctx int, v SecVec, ts, now clock.Cycles)
	// Reset clears all visibility, timestamps, and stats without
	// reallocating, returning the tracker to its freshly constructed state
	// for machine reuse.
	Reset()
}

// Compile-time checks.
var (
	_ Tracker = (*SecArray)(nil)
	_ Tracker = (*LimitedTracker)(nil)
)

// NewTracker constructs the tracker selected by cfg: a full-map SecArray
// when MaxSharers is zero, otherwise a LimitedTracker with that many
// pointer slots per line.
func NewTracker(cfg Config, lines, contexts int) Tracker {
	if cfg.MaxSharers > 0 {
		return NewLimitedTracker(cfg, lines, contexts)
	}
	return NewSecArray(cfg, lines, contexts)
}

// LimitedTracker tracks at most MaxSharers contexts per line using pointer
// slots, the directory-style area optimization the paper sketches for
// server-class LLCs (§VI-C): k·log2(n) bits per line instead of n.
type LimitedTracker struct {
	cfg      Config
	lines    int
	contexts int
	k        int

	// slots[line*k .. line*k+k-1] hold context ids; slotValid the
	// corresponding valid bits.
	slots     []uint8
	slotValid []bool
	tc        []uint64

	// clockHand drives round-robin victim selection on overflow.
	clockHand int
}

// NewLimitedTracker creates a limited-pointer tracker with cfg.MaxSharers
// slots per line.
func NewLimitedTracker(cfg Config, lines, contexts int) *LimitedTracker {
	if lines <= 0 {
		panic("core: line count must be positive")
	}
	if contexts <= 0 || contexts > 256 {
		panic(fmt.Sprintf("core: context count %d out of range [1,256]", contexts))
	}
	k := cfg.MaxSharers
	if k <= 0 || k > contexts {
		panic(fmt.Sprintf("core: MaxSharers %d out of range [1,%d]", k, contexts))
	}
	if cfg.TimestampBits == 0 {
		cfg.TimestampBits = clock.DefaultTimestampBits
	}
	return &LimitedTracker{
		cfg:       cfg,
		lines:     lines,
		contexts:  contexts,
		k:         k,
		slots:     make([]uint8, lines*k),
		slotValid: make([]bool, lines*k),
		tc:        make([]uint64, lines),
	}
}

func (t *LimitedTracker) check(line, ctx int) {
	if line < 0 || line >= t.lines {
		panic(fmt.Sprintf("core: line %d out of range [0,%d)", line, t.lines))
	}
	if ctx < 0 || ctx >= t.contexts {
		panic(fmt.Sprintf("core: context %d out of range [0,%d)", ctx, t.contexts))
	}
}

// Visible implements Tracker. Like SecArray, per-access methods trust the
// owning cache's geometry and skip argument re-validation; slice bounds
// still fault on garbage indices.
func (t *LimitedTracker) Visible(line, ctx int) bool {
	base := line * t.k
	for s := 0; s < t.k; s++ {
		if t.slotValid[base+s] && int(t.slots[base+s]) == ctx {
			return true
		}
	}
	return false
}

// OnFill implements Tracker.
func (t *LimitedTracker) OnFill(line, ctx int, now clock.Cycles) {
	base := line * t.k
	for s := 0; s < t.k; s++ {
		t.slotValid[base+s] = false
	}
	t.slots[base] = uint8(ctx)
	t.slotValid[base] = true
	t.tc[line] = uint64(clock.Trunc(now, t.cfg.TimestampBits))
}

// add inserts ctx into a line's slots, evicting round-robin on overflow.
func (t *LimitedTracker) add(line, ctx int) {
	base := line * t.k
	for s := 0; s < t.k; s++ {
		if t.slotValid[base+s] && int(t.slots[base+s]) == ctx {
			return
		}
	}
	for s := 0; s < t.k; s++ {
		if !t.slotValid[base+s] {
			t.slots[base+s] = uint8(ctx)
			t.slotValid[base+s] = true
			return
		}
	}
	// Overflow: evict an existing sharer. Dropping visibility is always
	// safe — the evicted context just pays another first access.
	victim := base + t.clockHand%t.k
	t.clockHand++
	t.slots[victim] = uint8(ctx)
}

// OnFirstAccess implements Tracker.
func (t *LimitedTracker) OnFirstAccess(line, ctx int) {
	t.add(line, ctx)
}

// OnEvict implements Tracker.
func (t *LimitedTracker) OnEvict(line int) {
	base := line * t.k
	for s := 0; s < t.k; s++ {
		t.slotValid[base+s] = false
	}
}

// SaveColumnInto implements Tracker: one linear scan over the slot arrays,
// with validation and slot-base arithmetic hoisted out of the per-line work
// (the old shape called Visible — and its bounds checks — per line).
func (t *LimitedTracker) SaveColumnInto(ctx int, dst SecVec) {
	t.check(0, ctx)
	if len(dst) != VecWords(t.lines) {
		panic(fmt.Sprintf("core: SecVec has %d words, want %d", len(dst), VecWords(t.lines)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, valid := range t.slotValid {
		if valid && int(t.slots[i]) == ctx {
			line := i / t.k
			dst[line>>6] |= 1 << (uint(line) & 63)
		}
	}
}

// clearColumn removes all of ctx's visibility: a single pass over the flat
// slot arrays instead of a lines×k nested loop with per-line base
// recomputation.
func (t *LimitedTracker) clearColumn(ctx int) {
	t.check(0, ctx)
	for i, valid := range t.slotValid {
		if valid && int(t.slots[i]) == ctx {
			t.slotValid[i] = false
		}
	}
}

// RestoreColumn implements Tracker: the Tc/Ts reconciliation is identical
// to the full-map design; only the storage differs.
func (t *LimitedTracker) RestoreColumn(ctx int, v SecVec, ts, now clock.Cycles) {
	t.check(0, ctx)
	if v != nil && len(v) != VecWords(t.lines) {
		panic(fmt.Sprintf("core: SecVec has %d words, want %d", len(v), VecWords(t.lines)))
	}
	t.clearColumn(ctx)
	if v == nil {
		return
	}
	if clock.RolledOver(ts, now, t.cfg.TimestampBits) {
		return
	}
	tsTrunc := uint64(clock.Trunc(ts, t.cfg.TimestampBits))
	mask := ^uint64(0)
	if t.cfg.TimestampBits < 64 {
		mask = (1 << t.cfg.TimestampBits) - 1
	}
	// Walk the saved column a word (64 lines) at a time, skipping empty
	// words; only set bits pay the per-line Tc comparison and slot insert.
	tailMask := ^uint64(0)
	if r := uint(t.lines) % 64; r != 0 {
		tailMask = (uint64(1) << r) - 1
	}
	last := len(v) - 1
	for w, word := range v {
		if w == last {
			word &= tailMask
		}
		for ; word != 0; word &= word - 1 {
			line := w<<6 + bits.TrailingZeros64(word)
			if t.tc[line]&mask > tsTrunc {
				continue // refilled while preempted: stay invisible
			}
			t.add(line, ctx)
		}
	}
}

// Reset implements Tracker.
func (t *LimitedTracker) Reset() {
	clear(t.slots)
	clear(t.slotValid)
	clear(t.tc)
	t.clockHand = 0
}
