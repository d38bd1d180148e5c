// Package bitserial models the paper's bit-serial, timestamp-parallel
// comparison hardware (Figures 5 and 6): a transposed SRAM array holding one
// Tc timestamp per cache line, a shift register holding the resuming
// process's Ts, and a per-bitline peripheral made of two SR latches and two
// AND gates.
//
// The array is stored transposed: plane[i] holds bit i (MSB first) of every
// timestamp, one bit per line. A comparison reads one plane per iteration —
// constant time in the number of timestamp bits, independent of the number
// of cache lines — and produces, per line, whether Tc > Ts (the condition
// under which the line's restored s-bit must be reset).
package bitserial

import "fmt"

// SRLatch is a set-reset latch. Set dominates in this model; the peripheral
// circuit never asserts both inputs in the same iteration.
type SRLatch struct {
	q bool
}

// Apply drives the latch inputs for one iteration and returns Q.
func (l *SRLatch) Apply(s, r bool) bool {
	switch {
	case s:
		l.q = true
	case r:
		l.q = false
	}
	return l.q
}

// Q returns the latch output.
func (l *SRLatch) Q() bool { return l.q }

// Reset clears the latch (the pre-comparison reset pulse).
func (l *SRLatch) Reset() { l.q = false }

// Array is the transposed timestamp SRAM for one cache: `lines` timestamps
// of `bits` width each, stored as bit planes.
type Array struct {
	bits   uint
	lines  int
	planes [][]uint64 // planes[i] = bit (bits-1-i) of every line, packed 64/word

	// Peripherals: one pair of latches per line (per bitline in hardware).
	gt   []SRLatch // latched "Tc > Ts" result
	stop []SRLatch // latched "Tc < Ts, stop comparing" result
}

// NewArray creates a transposed array for the given line count and timestamp
// width in bits (1..64).
func NewArray(lines int, bits uint) *Array {
	if lines <= 0 {
		panic("bitserial: line count must be positive")
	}
	if bits == 0 || bits > 64 {
		panic(fmt.Sprintf("bitserial: invalid timestamp width %d", bits))
	}
	words := (lines + 63) / 64
	planes := make([][]uint64, bits)
	for i := range planes {
		planes[i] = make([]uint64, words)
	}
	return &Array{
		bits:   bits,
		lines:  lines,
		planes: planes,
		gt:     make([]SRLatch, lines),
		stop:   make([]SRLatch, lines),
	}
}

// Store writes the timestamp for one line through the transpose interface
// (the regular-operation path used when a cache line is filled).
func (a *Array) Store(line int, tc uint64) {
	a.check(line)
	word, bit := line/64, uint(line%64)
	for i := uint(0); i < a.bits; i++ {
		// plane 0 holds the MSB.
		v := (tc >> (a.bits - 1 - i)) & 1
		if v == 1 {
			a.planes[i][word] |= 1 << bit
		} else {
			a.planes[i][word] &^= 1 << bit
		}
	}
}

// Load reads back the timestamp of one line through the transpose interface.
func (a *Array) Load(line int) uint64 {
	a.check(line)
	word, bit := line/64, uint(line%64)
	var tc uint64
	for i := uint(0); i < a.bits; i++ {
		tc <<= 1
		tc |= (a.planes[i][word] >> bit) & 1
	}
	return tc
}

// ShiftRegister holds Ts and shifts out one bit per iteration, MSB first.
type ShiftRegister struct {
	bits uint
	v    uint64
	pos  uint
}

// NewShiftRegister loads Ts into a bits-wide register.
func NewShiftRegister(ts uint64, bits uint) *ShiftRegister {
	if bits == 0 || bits > 64 {
		panic(fmt.Sprintf("bitserial: invalid shift register width %d", bits))
	}
	mask := ^uint64(0)
	if bits < 64 {
		mask = (1 << bits) - 1
	}
	return &ShiftRegister{bits: bits, v: ts & mask}
}

// Shift returns the next bit, MSB first. Shifting past the end panics: the
// controller runs exactly `bits` iterations.
func (s *ShiftRegister) Shift() bool {
	if s.pos >= s.bits {
		panic("bitserial: shift register exhausted")
	}
	b := (s.v >> (s.bits - 1 - s.pos)) & 1
	s.pos++
	return b == 1
}

// CompareGT runs the full bit-serial comparison against ts and returns, for
// each line, whether Tc > Ts. The returned mask is packed 64 lines per word.
//
// The iteration mirrors Figure 6 exactly: for bit i (MSB first), with a =
// Ts[i] from the shift register and b = Tc[i] from the bit plane,
//
//	gt latch set   <- b AND NOT a AND NOT stop.Q  (Tc proven greater)
//	stop latch set <- a AND NOT b AND NOT gt.Q    (Tc proven smaller)
//
// Exactly `bits` iterations run regardless of data — the comparison is
// constant time, which is what keeps the context-switch update itself from
// becoming a timing channel.
func (a *Array) CompareGT(ts uint64) []uint64 {
	return a.CompareGTInto(ts, make([]uint64, (a.lines+63)/64))
}

// CompareGTInto is CompareGT writing the packed result into dst, which must
// have (lines+63)/64 words. It performs no allocation, so a caller that
// compares on every context switch can reuse one buffer. Returns dst.
func (a *Array) CompareGTInto(ts uint64, dst []uint64) []uint64 {
	if want := (a.lines + 63) / 64; len(dst) != want {
		panic(fmt.Sprintf("bitserial: result buffer has %d words, want %d", len(dst), want))
	}
	for i := range a.gt {
		a.gt[i].Reset()
		a.stop[i].Reset()
	}
	// A stack-allocated register: the constructor's pointer return would
	// escape to the heap, and this path must stay allocation-free.
	mask := ^uint64(0)
	if a.bits < 64 {
		mask = (1 << a.bits) - 1
	}
	sr := ShiftRegister{bits: a.bits, v: ts & mask}
	for i := uint(0); i < a.bits; i++ {
		tsBit := sr.Shift()
		plane := a.planes[i]
		for line := 0; line < a.lines; line++ {
			tcBit := (plane[line/64]>>(uint(line%64)))&1 == 1
			decided := a.gt[line].Q() || a.stop[line].Q()
			a.gt[line].Apply(tcBit && !tsBit && !decided, false)
			a.stop[line].Apply(tsBit && !tcBit && !decided, false)
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	for line := 0; line < a.lines; line++ {
		if a.gt[line].Q() {
			dst[line/64] |= 1 << uint(line%64)
		}
	}
	return dst
}

// Iterations returns the number of bit-serial steps a comparison takes; it
// is always exactly the timestamp width, independent of the stored data.
// Exposed so tests can assert the constant-time property structurally.
func (a *Array) Iterations() uint { return a.bits }

func (a *Array) check(line int) {
	if line < 0 || line >= a.lines {
		panic(fmt.Sprintf("bitserial: line %d out of range [0,%d)", line, a.lines))
	}
}

// ReferenceGT computes the same Tc > Ts mask with plain integer compares.
// It exists so property tests can verify the gate-level model, and as the
// fast path used by the simulator when gate-level fidelity is not requested.
func ReferenceGT(tcs []uint64, ts uint64, bits uint) []uint64 {
	return ReferenceGTInto(tcs, ts, bits, make([]uint64, (len(tcs)+63)/64))
}

// ReferenceGTInto is ReferenceGT writing the packed result into dst, which
// must have (len(tcs)+63)/64 words; no allocation. Returns dst.
func ReferenceGTInto(tcs []uint64, ts uint64, bits uint, dst []uint64) []uint64 {
	if want := (len(tcs) + 63) / 64; len(dst) != want {
		panic(fmt.Sprintf("bitserial: result buffer has %d words, want %d", len(dst), want))
	}
	mask := ^uint64(0)
	if bits < 64 {
		mask = (1 << bits) - 1
	}
	ts &= mask
	for i := range dst {
		dst[i] = 0
	}
	for i, tc := range tcs {
		if tc&mask > ts {
			dst[i/64] |= 1 << uint(i%64)
		}
	}
	return dst
}
