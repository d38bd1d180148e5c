// Package replacement provides pluggable cache replacement policies.
//
// Policies operate on one cache set at a time: they are told about fills and
// touches (hits) per way, and asked to pick a victim way. True LRU is the
// default (and is required by the LRU side-channel attack reproduction from
// paper §VII-A); tree-PLRU and random are provided as alternatives.
package replacement

import (
	"fmt"
	"math/bits"
)

// Policy decides which way of a cache set to evict.
//
// All methods take the set index so one Policy instance manages every set of
// a cache. Ways are dense indices [0, ways).
type Policy interface {
	// Touch records an access (hit or fill) to the given way of a set.
	Touch(set, way int)
	// Victim returns the way to evict from a set. Invalid ways should be
	// preferred by the cache before calling Victim.
	Victim(set int) int
	// Name identifies the policy for stats and configuration.
	Name() string
	// Reset returns the policy to its freshly constructed state without
	// reallocating. Machine reuse across experiment runs (machine.Reset)
	// depends on reset policies reproducing a cold machine's victim
	// decisions exactly.
	Reset()
}

// Kind names a replacement policy for configuration.
type Kind string

// Supported replacement policy kinds.
const (
	LRU      Kind = "lru"
	TreePLRU Kind = "tree-plru"
	Random   Kind = "random"
)

// New constructs a policy for a cache with the given geometry. Seed is used
// only by the random policy.
func New(kind Kind, sets, ways int, seed uint64) (Policy, error) {
	switch kind {
	case LRU, "":
		return NewLRU(sets, ways), nil
	case TreePLRU:
		return NewTreePLRU(sets, ways), nil
	case Random:
		return NewRandom(sets, ways, seed), nil
	default:
		return nil, fmt.Errorf("replacement: unknown policy %q", kind)
	}
}

// LRUPolicy implements true least-recently-used with one packed recency
// word per set: a stack of 4-bit way numbers, nibble 0 the most recently
// used way and nibble ways-1 the victim. Touch moves a way's nibble to the
// front, so it reads and writes one word instead of an age stamp and a
// per-set clock, and Victim is one shift instead of a scan over the ways.
// The concrete type is exported so hot callers (the cache lookup path) can
// devirtualize Touch — a direct, inlinable call instead of an interface
// dispatch per hit.
type LRUPolicy struct {
	words []uint64 // per-set recency stacks
	cold  uint64   // a never-touched set's stack (see NewLRU)
	shift uint     // 4*(ways-1): the victim nibble's offset
}

// maxLRUWays is the widest set a packed recency word holds.
const maxLRUWays = 16

// nibbleOnes has a 1 in every nibble; nibbleHighs has every nibble's top bit.
const (
	nibbleOnes  = 0x1111111111111111
	nibbleHighs = 0x8888888888888888
)

// NewLRU returns a true LRU policy. A set holds at most 16 ways (one nibble
// each), so wider sets panic, as tree-PLRU panics on ways that are not a
// power of two. A never-touched set's stack lists the ways from ways-1 down
// to 0, so way 0 is the first victim and untouched ways go in index order:
// the lowest-way tie-break of age stamps that all start at zero.
func NewLRU(sets, ways int) Policy {
	checkGeom(sets, ways)
	if ways > maxLRUWays {
		panic(fmt.Sprintf("replacement: lru holds at most %d ways, got %d", maxLRUWays, ways))
	}
	l := &LRUPolicy{words: make([]uint64, sets), shift: uint(4 * (ways - 1))}
	for i := 0; i < ways; i++ {
		l.cold |= uint64(ways-1-i) << (4 * i)
	}
	l.Reset()
	return l
}

// Name implements Policy.
func (l *LRUPolicy) Name() string { return string(LRU) }

// Touch implements Policy: the way's nibble moves to the front and the
// nibbles in front of it shift back one place. XOR with the way in every
// nibble zeroes exactly the way's nibble; the lowest zero nibble is found
// with the borrow test, which is exact for the lowest match (nibbles past
// the set's ways are zero and above every way's nibble, so they never
// come first).
func (l *LRUPolicy) Touch(set, way int) {
	w := l.words[set]
	x := w ^ uint64(way)*nibbleOnes
	pos := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3
	below := uint64(1)<<pos - 1
	l.words[set] = w&^(below|0xF<<pos) | (w&below)<<4 | uint64(way)
}

// Reset implements Policy.
func (l *LRUPolicy) Reset() {
	for i := range l.words {
		l.words[i] = l.cold
	}
}

// Victim implements Policy.
func (l *LRUPolicy) Victim(set int) int {
	return int(l.words[set] >> l.shift & 0xF)
}

// treePLRU implements the classic binary-tree pseudo-LRU. Ways must be a
// power of two.
type treePLRU struct {
	ways int
	// bits holds ways-1 tree bits per set; bit value 0 means "left subtree
	// is older" (victim lives left), 1 means right.
	bits [][]bool
}

// NewTreePLRU returns a tree-PLRU policy. Ways must be a power of two.
func NewTreePLRU(sets, ways int) Policy {
	checkGeom(sets, ways)
	if ways&(ways-1) != 0 {
		panic("replacement: tree-plru requires power-of-two ways")
	}
	b := make([][]bool, sets)
	for i := range b {
		b[i] = make([]bool, ways-1)
	}
	return &treePLRU{ways: ways, bits: b}
}

func (t *treePLRU) Name() string { return string(TreePLRU) }

// Reset implements Policy.
func (t *treePLRU) Reset() {
	for _, b := range t.bits {
		clear(b)
	}
}

// Touch flips the tree bits along the path to way so they point away from it.
func (t *treePLRU) Touch(set, way int) {
	bits := t.bits[set]
	node, lo, hi := 0, 0, t.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits[node] = true // point at right: left was just used
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = false // point at left
			node = 2*node + 2
			lo = mid
		}
	}
}

// Victim follows the tree bits to the pseudo-oldest way.
func (t *treePLRU) Victim(set int) int {
	bits := t.bits[set]
	node, lo, hi := 0, 0, t.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// random picks victims with an xorshift64* PRNG so runs stay reproducible.
type random struct {
	ways  int
	seed  uint64 // resolved construction seed, kept for Reset
	state uint64
}

// NewRandom returns a seeded random-victim policy.
func NewRandom(sets, ways int, seed uint64) Policy {
	checkGeom(sets, ways)
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &random{ways: ways, seed: seed, state: seed}
}

func (r *random) Name() string       { return string(Random) }
func (r *random) Touch(set, way int) {}

// Reset implements Policy: the PRNG restarts from its construction seed.
func (r *random) Reset() { r.state = r.seed }

func (r *random) Victim(set int) int {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return int((r.state * 0x2545F4914F6CDD1D) >> 33 % uint64(r.ways))
}

func checkGeom(sets, ways int) {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("replacement: invalid geometry sets=%d ways=%d", sets, ways))
	}
}
