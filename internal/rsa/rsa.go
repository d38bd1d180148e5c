// Package rsa implements the attack target from the paper's evaluation
// (§VI-A2): a GnuPG-style left-to-right square-and-multiply modular
// exponentiation whose Square, Multiply, and Reduce routines live in a
// shared-library mapping. The control flow through the shared code is
// indexed by the secret exponent bits — processing a 1 bit executes
// Square, Reduce, Multiply, Reduce; a 0 bit executes Square, Reduce — so a
// flush+reload attacker monitoring the function entry lines recovers the
// key on an undefended cache.
package rsa

import (
	"timecache/internal/cache"
	"timecache/internal/sim"
)

// Library describes the shared-library layout of the three routines. Each
// routine's entry occupies its own cache line inside the region mapped at
// Base in both the victim's and the attacker's address spaces.
type Library struct {
	// Base is the virtual address of the library mapping.
	Base uint64
	// LinesPerFunc spaces the function entries (1 line each is enough; a
	// larger spacing mimics real function bodies spanning lines).
	LinesPerFunc uint64
}

// DefaultLibrary places the library at an address clear of the default
// program layout, with function entries four lines apart.
func DefaultLibrary(base uint64) Library {
	return Library{Base: base, LinesPerFunc: 4}
}

// SquareAddr returns the entry line address of the Square routine.
func (l Library) SquareAddr() uint64 { return l.Base }

// MultiplyAddr returns the entry line address of the Multiply routine.
func (l Library) MultiplyAddr() uint64 {
	return l.Base + l.LinesPerFunc*cache.LineSize
}

// ReduceAddr returns the entry line address of the Reduce routine.
func (l Library) ReduceAddr() uint64 {
	return l.Base + 2*l.LinesPerFunc*cache.LineSize
}

// Size returns the bytes of library image the mapping needs.
func (l Library) Size() uint64 { return 3 * l.LinesPerFunc * cache.LineSize }

// Key is a secret exponent as explicit bits, most significant first.
type Key []bool

// GenerateKey builds a deterministic pseudo-random key of the given bit
// length from seed. The leading bit is forced to 1, as in a real exponent.
func GenerateKey(bits int, seed uint64) Key {
	if bits <= 0 {
		panic("rsa: key must have at least one bit")
	}
	k := make(Key, bits)
	s := seed | 1
	for i := range k {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		k[i] = s&1 == 1
	}
	k[0] = true
	return k
}

// Uint64 packs up to the first 64 bits of the key (for display).
func (k Key) Uint64() uint64 {
	var v uint64
	for i := 0; i < len(k) && i < 64; i++ {
		v <<= 1
		if k[i] {
			v |= 1
		}
	}
	return v
}

// String renders the key as a bit string.
func (k Key) String() string {
	b := make([]byte, len(k))
	for i, bit := range k {
		if bit {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Match returns the fraction of bits in guess that equal k (0..1).
func (k Key) Match(guess Key) float64 {
	n := len(k)
	if len(guess) < n {
		n = len(guess)
	}
	if n == 0 {
		return 0
	}
	same := 0
	for i := 0; i < n; i++ {
		if k[i] == guess[i] {
			same++
		}
	}
	return float64(same) / float64(len(k))
}

// Victim is a sim.Proc performing modular exponentiation base^key mod
// modulus using left-to-right square-and-multiply. Every Square, Multiply,
// and Reduce executes real 64-bit modular arithmetic and touches its shared
// library entry line, so the victim's cache footprint is genuinely
// key-dependent. After finishing each key bit the victim yields, modeling
// the attacker's ability to observe between operations (the paper's victim
// runs concurrently; interleaved slices give the same per-bit visibility).
type Victim struct {
	Lib     Library
	Key     Key
	Base    uint64 // exponentiation base
	Modulus uint64

	// Result is base^key mod Modulus once finished.
	Result   uint64
	Finished bool

	// WorkCycles is extra compute charged per routine call, modeling the
	// big-number loop bodies.
	WorkCycles uint64

	bitIdx int
	phase  int // 0=square, 1=reduce, 2=multiply, 3=reduce2, 4=yield
	acc    uint64
	inited bool
}

// NewVictim builds a victim over lib computing base^key mod modulus.
func NewVictim(lib Library, key Key, base, modulus uint64) *Victim {
	if modulus == 0 {
		panic("rsa: zero modulus")
	}
	return &Victim{Lib: lib, Key: key, Base: base % modulus, Modulus: modulus, WorkCycles: 50}
}

// call touches the routine's entry line and charges its compute cost.
func (v *Victim) call(env sim.Env, addr uint64) {
	env.Fetch(addr)
	env.Tick(v.WorkCycles)
	env.Instret(8)
}

// Step implements sim.Proc, advancing one routine call at a time.
func (v *Victim) Step(env sim.Env) bool {
	if v.Finished {
		return false
	}
	if !v.inited {
		v.acc = 1
		v.inited = true
	}
	if v.bitIdx >= len(v.Key) {
		v.Result = v.acc
		v.Finished = true
		env.Syscall(sim.SysExit, v.acc)
		return false
	}
	bit := v.Key[v.bitIdx]
	switch v.phase {
	case 0: // Square
		v.call(env, v.Lib.SquareAddr())
		v.acc = mulmod(v.acc, v.acc, v.Modulus)
		v.phase = 1
	case 1: // Reduce (the modular reduction after squaring)
		v.call(env, v.Lib.ReduceAddr())
		if bit {
			v.phase = 2
		} else {
			v.phase = 4
		}
	case 2: // Multiply (only for 1 bits)
		v.call(env, v.Lib.MultiplyAddr())
		v.acc = mulmod(v.acc, v.Base, v.Modulus)
		v.phase = 3
	case 3: // Reduce after multiply
		v.call(env, v.Lib.ReduceAddr())
		v.phase = 4
	case 4: // bit finished: yield so the observer interleaves per bit
		v.bitIdx++
		v.phase = 0
		env.Syscall(sim.SysYield, 0)
	}
	return true
}

// mulmod computes a*b mod m without overflow using 128-bit intermediate
// via the schoolbook split (portable, no math/bits.Mul64 dependency needed,
// but bits.Mul64 is stdlib — use the simple double-and-add for clarity).
func mulmod(a, b, m uint64) uint64 {
	a %= m
	var r uint64
	for b > 0 {
		if b&1 == 1 {
			r = addmod(r, a, m)
		}
		a = addmod(a, a, m)
		b >>= 1
	}
	return r
}

func addmod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	if a >= m-b {
		return a - (m - b)
	}
	return a + b
}

// ModExp is the reference modular exponentiation used to verify the
// victim's arithmetic.
func ModExp(base uint64, key Key, modulus uint64) uint64 {
	if modulus == 0 {
		panic("rsa: zero modulus")
	}
	acc := uint64(1)
	base %= modulus
	for _, bit := range key {
		acc = mulmod(acc, acc, modulus)
		if bit {
			acc = mulmod(acc, base, modulus)
		}
	}
	return acc
}
