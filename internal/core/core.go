// Package core implements the paper's primary contribution: per-process
// cache line visibility via per-hardware-context security bits (s-bits), a
// per-line fill timestamp Tc, and the context-switch update that reconciles
// a process's restored s-bits against the current cache contents by
// comparing Tc with the process's preemption timestamp Ts.
//
// The package is cache-geometry agnostic: a SecArray covers the lines of one
// cache, with one s-bit column per hardware context sharing that cache. The
// cache model (internal/cache) consults it on every access; the kernel
// (internal/kernel) saves/restores columns at context switches.
package core

import (
	"fmt"

	"timecache/internal/bitserial"
	"timecache/internal/clock"
)

// Config controls the TimeCache security state for one cache.
type Config struct {
	// TimestampBits is the Tc width (32 in the paper's evaluation).
	TimestampBits uint
	// GateLevel routes context-switch timestamp comparisons through the
	// gate-level bit-serial model instead of the fast reference path.
	GateLevel bool
	// MaxSharers, when positive, replaces the full s-bit map with the
	// limited-pointer tracker (§VI-C area optimization): at most this many
	// contexts are tracked per line, with conservative eviction on
	// overflow. Zero keeps the paper's full per-context s-bits.
	MaxSharers int
}

// DefaultConfig matches the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{TimestampBits: clock.DefaultTimestampBits}
}

// SecVec is a saved s-bit column: one bit per cache line, packed 64 per
// word. A nil SecVec means "no bits set" (a process that never ran on this
// cache), which is what a newly created process restores.
type SecVec []uint64

// VecWords returns the number of words a SecVec needs for `lines` lines.
func VecWords(lines int) int { return (lines + 63) / 64 }

// SecArray holds the TimeCache hardware state for one cache: the per-line,
// per-context s-bits and the per-line fill timestamps.
//
// The s-bits are stored column-major: one packed bit vector per hardware
// context (64 lines per word), mirroring the SecVec layout software saves
// and restores. Column operations — the per-context-switch hot path — are
// therefore plain word operations over already-packed vectors:
// SaveColumnInto is a copy, restoring a nil column a memclr, and
// RestoreColumn an AND-NOT of the saved column with the comparator's Tc>Ts
// mask, 64 lines per iteration.
//
// Per-access methods (Visible, OnFill, OnFirstAccess, OnEvict) do not
// re-validate their arguments: line indices come from the owning cache's
// geometry and context indices are validated once at the column-operation
// (context switch) boundary and at construction. Out-of-range values still
// fault via slice bounds rather than corrupting state.
type SecArray struct {
	cfg      Config
	lines    int
	contexts int
	words    int // words per column = VecWords(lines)

	// cols holds the per-context s-bit columns back to back:
	// cols[ctx*words .. (ctx+1)*words-1] is context ctx's packed column.
	cols []uint64
	// tc[line] is the truncated fill timestamp of the line.
	tc []uint64
	// arr mirrors tc in the transposed gate-level SRAM when GateLevel is on.
	arr *bitserial.Array
	// gtBuf is the reusable Tc>Ts mask buffer for RestoreColumn.
	gtBuf []uint64
}

// NewSecArray creates security state for a cache with the given number of
// lines, shared by the given number of hardware contexts (max 64).
func NewSecArray(cfg Config, lines, contexts int) *SecArray {
	if lines <= 0 {
		panic("core: line count must be positive")
	}
	if contexts <= 0 || contexts > 64 {
		panic(fmt.Sprintf("core: context count %d out of range [1,64]", contexts))
	}
	if cfg.TimestampBits == 0 {
		cfg.TimestampBits = clock.DefaultTimestampBits
	}
	words := VecWords(lines)
	s := &SecArray{
		cfg:      cfg,
		lines:    lines,
		contexts: contexts,
		words:    words,
		cols:     make([]uint64, contexts*words),
		tc:       make([]uint64, lines),
		gtBuf:    make([]uint64, words),
	}
	if cfg.GateLevel {
		s.arr = bitserial.NewArray(lines, cfg.TimestampBits)
	}
	return s
}

// col returns ctx's packed column.
func (s *SecArray) col(ctx int) []uint64 {
	return s.cols[ctx*s.words : (ctx+1)*s.words : (ctx+1)*s.words]
}

// Visible reports whether the line's current resident copy has already been
// seen by the context, i.e. whether a tag hit may be treated as a real hit.
func (s *SecArray) Visible(line, ctx int) bool {
	return s.cols[ctx*s.words+line>>6]>>(uint(line)&63)&1 == 1
}

// OnFill records a cache line fill by ctx at time now: the filling context's
// s-bit is set, all other contexts' s-bits are reset, and Tc is stamped.
func (s *SecArray) OnFill(line, ctx int, now clock.Cycles) {
	w, mask := line>>6, uint64(1)<<(uint(line)&63)
	for c := 0; c < s.contexts; c++ {
		s.cols[c*s.words+w] &^= mask
	}
	s.cols[ctx*s.words+w] |= mask
	t := uint64(clock.Trunc(now, s.cfg.TimestampBits))
	s.tc[line] = t
	if s.arr != nil {
		s.arr.Store(line, t)
	}
}

// OnFirstAccess records that ctx has now paid the first-access delay for a
// resident line; subsequent accesses by ctx proceed as hits.
func (s *SecArray) OnFirstAccess(line, ctx int) {
	s.cols[ctx*s.words+line>>6] |= 1 << (uint(line) & 63)
}

// OnEvict clears all s-bits for a line being evicted or invalidated.
func (s *SecArray) OnEvict(line int) {
	w, mask := line>>6, uint64(1)<<(uint(line)&63)
	for c := 0; c < s.contexts; c++ {
		s.cols[c*s.words+w] &^= mask
	}
}

// SaveColumnInto copies the s-bit column for ctx — the process-specific
// caching context software writes to memory at preemption — into dst,
// which must have VecWords(lines) words. It performs no allocation: the
// kernel keeps one buffer per (process, cache) and reuses it.
func (s *SecArray) SaveColumnInto(ctx int, dst SecVec) {
	s.checkCtx(ctx)
	if len(dst) != s.words {
		panic(fmt.Sprintf("core: SecVec has %d words, want %d", len(dst), s.words))
	}
	copy(dst, s.col(ctx))
}

// RestoreColumn installs a saved s-bit column for ctx and brings it
// up-to-date with the current cache contents, as the hardware does when a
// process resumes:
//
//   - If the truncated timestamp counter rolled over between ts (the
//     process's preemption time) and now, every restored s-bit is reset
//     (paper §VI-C): lines refilled after the wrap can carry smaller Tc.
//   - Otherwise every restored s-bit whose line has Tc > Ts is reset — the
//     line was (re)filled while the process was preempted, so the process
//     has not seen this copy.
//
// ts and now are full 64-bit cycle counts kept by software; the hardware
// comparison uses the truncated values. Both the saved column and the
// comparator output are packed bit vectors, so the reconciliation is an
// AND-NOT per word — 64 lines per iteration, mirroring the hardware's
// timestamp-parallel comparison.
func (s *SecArray) RestoreColumn(ctx int, v SecVec, ts, now clock.Cycles) {
	s.checkCtx(ctx)
	if v != nil && len(v) != s.words {
		panic(fmt.Sprintf("core: SecVec has %d words, want %d", len(v), s.words))
	}
	col := s.col(ctx)
	if v == nil {
		for i := range col {
			col[i] = 0
		}
		return
	}
	if clock.RolledOver(ts, now, s.cfg.TimestampBits) {
		for i := range col {
			col[i] = 0
		}
		return
	}
	tsTrunc := uint64(clock.Trunc(ts, s.cfg.TimestampBits))
	var gt []uint64
	if s.arr != nil {
		gt = s.arr.CompareGTInto(tsTrunc, s.gtBuf)
	} else {
		gt = bitserial.ReferenceGTInto(s.tc, tsTrunc, s.cfg.TimestampBits, s.gtBuf)
	}
	// Mask stray bits beyond the last line so a padded saved column cannot
	// resurrect lines the array does not cover.
	tailMask := ^uint64(0)
	if r := uint(s.lines) % 64; r != 0 {
		tailMask = (uint64(1) << r) - 1
	}
	last := s.words - 1
	for w := 0; w < s.words; w++ {
		vw := v[w]
		if w == last {
			vw &= tailMask
		}
		col[w] = vw &^ gt[w]
	}
}

// Reset clears every s-bit column and all fill timestamps (including the
// gate-level mirror when present) without reallocating, returning the
// array to its freshly constructed state.
func (s *SecArray) Reset() {
	clear(s.cols)
	clear(s.tc)
	if s.arr != nil {
		for line := 0; line < s.lines; line++ {
			s.arr.Store(line, 0)
		}
	}
}

// checkCtx validates a context index at the column-operation boundary.
func (s *SecArray) checkCtx(ctx int) {
	if ctx < 0 || ctx >= s.contexts {
		panic(fmt.Sprintf("core: context %d out of range [0,%d)", ctx, s.contexts))
	}
}
