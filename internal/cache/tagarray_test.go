package cache

import (
	"math/rand"
	"testing"

	"timecache/internal/core"
	"timecache/internal/replacement"
)

// shadowCache is the brute-force reference for a Cache's tag array: which
// line indices hold which line address, kept by the test alongside the
// cache's own bookkeeping.
type shadowCache struct {
	valid []bool
	tag   []uint64
}

func newShadow(n int) *shadowCache {
	return &shadowCache{valid: make([]bool, n), tag: make([]uint64, n)}
}

func (s *shadowCache) copyFrom(o *shadowCache) {
	copy(s.valid, o.valid)
	copy(s.tag, o.tag)
}

func (s *shadowCache) clear() {
	clear(s.valid)
	clear(s.tag)
}

// matches returns every line index in ways [lo,hi) of set holding lineAddr.
func (s *shadowCache) matches(c *Cache, lineAddr uint64, lo, hi int) []int {
	var out []int
	base := c.setOf(lineAddr) * c.ways
	for w := lo; w < hi; w++ {
		if s.valid[base+w] && s.tag[base+w] == lineAddr {
			out = append(out, base+w)
		}
	}
	return out
}

// checkAgainst compares the cache's tag-array queries with brute-force
// scans of the shadow: per-line validity and tag, occupancy, and lookup,
// Probe and victim for every address of the pool and every context.
func checkAgainst(t *testing.T, step int, op string, c *Cache, s *shadowCache, pool []uint64, ctxs int) {
	t.Helper()
	occ := 0
	for i := range c.lines {
		if got := c.lines[i].st != invalid; got != s.valid[i] {
			t.Fatalf("step %d (%s): line %d valid=%v, shadow %v", step, op, i, got, s.valid[i])
		}
		if got := c.tags[i] != 0; got != s.valid[i] {
			t.Fatalf("step %d (%s): line %d packed tag %#x disagrees with validity %v", step, op, i, c.tags[i], s.valid[i])
		}
		if s.valid[i] {
			occ++
			if c.tagAt(i) != s.tag[i] {
				t.Fatalf("step %d (%s): line %d tag %#x, shadow %#x", step, op, i, c.tagAt(i), s.tag[i])
			}
		}
	}
	if got := c.Occupancy(); got != occ {
		t.Fatalf("step %d (%s): occupancy %d, shadow %d", step, op, got, occ)
	}
	for _, addr := range pool {
		all := s.matches(c, addr, 0, c.ways)
		got := c.Probe(addr)
		if (got >= 0) != (len(all) > 0) || (got >= 0 && !contains(all, got)) {
			t.Fatalf("step %d (%s): Probe(%#x) = %d, shadow holds it at %v", step, op, addr, got, all)
		}
		for ctx := 0; ctx < ctxs; ctx++ {
			lo, hi := c.wayRange(ctx)
			in := s.matches(c, addr, lo, hi)
			got := c.lookup(addr, ctx)
			if (got >= 0) != (len(in) > 0) || (got >= 0 && !contains(in, got)) {
				t.Fatalf("step %d (%s): lookup(%#x, ctx %d) = %d, shadow holds it at %v in ways [%d,%d)",
					step, op, addr, ctx, got, in, lo, hi)
			}
			set := c.setOf(addr)
			base := set * c.ways
			want := -1
			for w := lo; w < hi; w++ {
				if !s.valid[base+w] {
					want = base + w
					break
				}
			}
			if want < 0 {
				// A full partition: the policy's way if it falls inside,
				// else the partition's first way.
				v := c.pol.Victim(set)
				if v < lo || v >= hi {
					v = lo
				}
				want = base + v
			}
			if got := c.victim(addr, ctx); got != want {
				t.Fatalf("step %d (%s): victim(%#x, ctx %d) = %d, brute force %d", step, op, addr, ctx, got, want)
			}
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestTagArrayReference drives caches through fills, invalidations,
// FlushAll, Reset and copyFrom in random order and, after every operation,
// checks lookup, Probe and victim against a brute-force scan of a shadow
// model. It covers whole-set and way-partitioned caches, with and without
// TimeCache state, under LRU and tree-PLRU replacement.
func TestTagArrayReference(t *testing.T) {
	type variant struct {
		name   string
		policy replacement.Kind
		part   bool
		sec    bool
	}
	variants := []variant{
		{"lru", replacement.LRU, false, false},
		{"lru-sec", replacement.LRU, false, true},
		{"plru-partitioned", replacement.TreePLRU, true, false},
		{"lru-partitioned-sec", replacement.LRU, true, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			const ctxs = 2
			cfg := Config{Name: v.name, Size: 4 * 8 * LineSize, Ways: 8, Latency: 1, Policy: v.policy}
			if v.part {
				cfg.Partition = func(ctx int) (int, int) { return ctx * 4, 4 }
			}
			if v.sec {
				sc := core.DefaultConfig()
				cfg.Sec, cfg.SecContexts = &sc, ctxs
			}
			rng := rand.New(rand.NewSource(19))
			// A pool of 48 line addresses over 4 sets of 8 ways: enough to
			// force evictions, few enough to revisit resident lines.
			pool := make([]uint64, 48)
			for i := range pool {
				pool[i] = uint64(i) * LineSize
			}
			// Two caches of one config: ops land on either, and copyFrom
			// moves state between them in both directions.
			caches := [2]*Cache{New(cfg), New(cfg)}
			shadows := [2]*shadowCache{newShadow(caches[0].Lines()), newShadow(caches[1].Lines())}
			now := uint64(0)
			for step := 0; step < 4000; step++ {
				i := rng.Intn(2)
				c, s := caches[i], shadows[i]
				var op string
				switch r := rng.Intn(100); {
				case r < 70:
					op = "access"
					addr := pool[rng.Intn(len(pool))]
					ctx := rng.Intn(ctxs)
					now++
					if idx := c.lookup(addr, ctx); idx >= 0 {
						c.touch(idx)
						break
					}
					vic := c.victim(addr, ctx)
					st := shared
					if rng.Intn(3) == 0 {
						st = modified
					}
					c.fill(vic, addr, st, ctx, now)
					s.valid[vic], s.tag[vic] = true, addr
				case r < 90:
					op = "invalidate"
					idx := rng.Intn(c.Lines())
					if s.valid[idx] {
						c.invalidate(idx)
						s.valid[idx], s.tag[idx] = false, 0
					}
				case r < 93:
					op = "flush-all"
					c.FlushAll()
					s.clear()
				case r < 95:
					op = "reset"
					c.Reset()
					s.clear()
				default:
					op = "copy-from"
					j := 1 - i
					c.copyFrom(caches[j])
					s.copyFrom(shadows[j])
				}
				checkAgainst(t, step, op, c, s, pool, ctxs)
			}
		})
	}
}
