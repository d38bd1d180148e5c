package replacement

import (
	"testing"
	"testing/quick"
)

func TestLRUEvictsOldest(t *testing.T) {
	p := NewLRU(2, 4)
	for w := 0; w < 4; w++ {
		p.Touch(0, w)
	}
	if v := p.Victim(0); v != 0 {
		t.Fatalf("victim = %d, want 0 (oldest)", v)
	}
	p.Touch(0, 0) // refresh way 0; way 1 is now oldest
	if v := p.Victim(0); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

func TestLRUSetsIndependent(t *testing.T) {
	p := NewLRU(2, 2)
	p.Touch(0, 0)
	p.Touch(0, 1)
	p.Touch(1, 1)
	p.Touch(1, 0)
	if p.Victim(0) != 0 {
		t.Error("set 0 victim should be way 0")
	}
	if p.Victim(1) != 1 {
		t.Error("set 1 victim should be way 1")
	}
}

// Property: with true LRU, after touching each of `ways` distinct ways in
// some order, the victim is the first-touched way.
func TestLRUStackProperty(t *testing.T) {
	f := func(permSeed uint8) bool {
		const ways = 8
		p := NewLRU(1, ways)
		// Build a permutation from the seed via repeated swaps.
		order := make([]int, ways)
		for i := range order {
			order[i] = i
		}
		s := uint64(permSeed) + 1
		for i := ways - 1; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s>>33) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, w := range order {
			p.Touch(0, w)
		}
		return p.Victim(0) == order[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreePLRUVictimNeverMostRecent(t *testing.T) {
	p := NewTreePLRU(1, 8)
	for i := 0; i < 100; i++ {
		w := (i * 5) % 8
		p.Touch(0, w)
		if v := p.Victim(0); v == w {
			t.Fatalf("tree-PLRU chose the just-touched way %d as victim", w)
		}
	}
}

func TestTreePLRUCoversAllWays(t *testing.T) {
	// Repeatedly evicting and touching the victim must cycle through every
	// way (PLRU is a fair approximation under this adversarial pattern).
	p := NewTreePLRU(1, 4)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		v := p.Victim(0)
		seen[v] = true
		p.Touch(0, v)
	}
	for w := 0; w < 4; w++ {
		if !seen[w] {
			t.Fatalf("way %d never chosen as victim", w)
		}
	}
}

func TestTreePLRURequiresPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two ways must panic")
		}
	}()
	NewTreePLRU(1, 3)
}

func TestRandomInRangeAndDeterministic(t *testing.T) {
	a := NewRandom(1, 8, 42)
	b := NewRandom(1, 8, 42)
	for i := 0; i < 1000; i++ {
		va, vb := a.Victim(0), b.Victim(0)
		if va != vb {
			t.Fatal("same seed must give same victim sequence")
		}
		if va < 0 || va >= 8 {
			t.Fatalf("victim %d out of range", va)
		}
	}
}

func TestRandomSpreads(t *testing.T) {
	p := NewRandom(1, 4, 7)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[p.Victim(0)]++
	}
	for w, c := range counts {
		if c < 500 {
			t.Fatalf("way %d chosen only %d/4000 times; distribution badly skewed", w, c)
		}
	}
}

func TestNewByKind(t *testing.T) {
	for _, k := range []Kind{LRU, TreePLRU, Random, ""} {
		p, err := New(k, 4, 4, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", k, err)
		}
		if p == nil {
			t.Fatalf("New(%q) returned nil", k)
		}
	}
	if _, err := New("bogus", 4, 4, 1); err == nil {
		t.Error("unknown kind must error")
	}
}

// ageLRU is the age-stamp LRU model the packed recency word replaced: each
// touch stamps the way with the set's next tick, and the victim is the
// way with the oldest stamp, the lowest such way on a tie.
type ageLRU struct {
	ways  int
	ages  []uint64
	ticks []uint64
}

func newAgeLRU(sets, ways int) *ageLRU {
	return &ageLRU{ways: ways, ages: make([]uint64, sets*ways), ticks: make([]uint64, sets)}
}

func (a *ageLRU) touch(set, way int) {
	a.ticks[set]++
	a.ages[set*a.ways+way] = a.ticks[set]
}

func (a *ageLRU) victim(set int) int {
	base := set * a.ways
	victim, oldest := 0, a.ages[base]
	for w := 1; w < a.ways; w++ {
		if age := a.ages[base+w]; age < oldest {
			victim, oldest = w, age
		}
	}
	return victim
}

func (a *ageLRU) reset() {
	clear(a.ages)
	clear(a.ticks)
}

func (a *ageLRU) copyFrom(src *ageLRU) {
	copy(a.ages, src.ages)
	copy(a.ticks, src.ticks)
}

// TestLRUMatchesAgeStamps drives the packed LRU and the age-stamp model in
// lockstep over every width from 1 to 16 ways with seeded random touches,
// resets and snapshot copies, and requires the same victim in every set
// after every operation.
func TestLRUMatchesAgeStamps(t *testing.T) {
	const sets = 4
	for ways := 1; ways <= maxLRUWays; ways++ {
		p, q := NewLRU(sets, ways), newAgeLRU(sets, ways)
		saved, savedModel := NewLRU(sets, ways), newAgeLRU(sets, ways)
		s := uint64(ways)*0x9E3779B97F4A7C15 + 1
		next := func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(n))
		}
		for op := 0; op < 5000; op++ {
			switch r := next(100); {
			case r == 0:
				p.Reset()
				q.reset()
			case r == 1:
				Copy(saved, p)
				savedModel.copyFrom(q)
			case r == 2:
				Copy(p, saved)
				q.copyFrom(savedModel)
			default:
				// Skew touches toward low ways so recency orders repeat
				// and reach the front of the stack as well as the back.
				set, way := next(sets), next(ways)
				if r%2 == 0 {
					way = next(way + 1)
				}
				p.Touch(set, way)
				q.touch(set, way)
			}
			for set := 0; set < sets; set++ {
				if got, want := p.Victim(set), q.victim(set); got != want {
					t.Fatalf("ways=%d op %d set %d: victim %d, age-stamp model %d", ways, op, set, got, want)
				}
			}
		}
	}
}

func TestLRUTooManyWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLRU accepted 17 ways")
		}
	}()
	NewLRU(1, maxLRUWays+1)
}
