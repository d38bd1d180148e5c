package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"timecache/internal/core"
)

// smallHierarchyConfig returns a deliberately tiny geometry so random
// streams quickly force evictions, back-invalidations, and transient
// coherence states.
func smallHierarchyConfig(cores int, mode SecMode) HierarchyConfig {
	cfg := DefaultHierarchyConfig()
	cfg.Cores = cores
	cfg.Mode = mode
	cfg.L1Size = 512 // 4 sets x 2 ways
	cfg.L1Ways = 2
	cfg.LLCSize = 2048 // 8 sets x 4 ways
	cfg.LLCWays = 4
	return cfg
}

// driveRandomOps runs a deterministic pseudo-random mix of fetches, loads,
// stores, flushes, full flushes, and (under SecTimeCache) context-switch
// column save/restores against h. The same seed produces the same stream,
// so two hierarchies driven with equal seeds see identical inputs.
func driveRandomOps(t *testing.T, h *Hierarchy, rng *rand.Rand, ops int, record func(op int, latency uint64, res Result)) {
	t.Helper()
	cores := h.Config().Cores
	lines := 64 // working set: 64 distinct lines across 8 LLC sets
	for i := 0; i < ops; i++ {
		ctx := rng.Intn(cores)
		addr := uint64(rng.Intn(lines)) * LineSize
		switch r := rng.Intn(100); {
		case r < 35:
			res := h.Access(uint64(i), ctx, addr, Load)
			record(i, 0, res)
		case r < 60:
			res := h.Access(uint64(i), ctx, addr, Store)
			record(i, 0, res)
		case r < 80:
			res := h.Access(uint64(i), ctx, addr, Fetch)
			record(i, 0, res)
		case r < 90:
			lat := h.Flush(uint64(i), ctx, addr)
			record(i, lat, Result{})
		case r < 95 && h.Config().Mode == SecTimeCache:
			// Model a context switch on ctx: save its columns and restore
			// them with an advanced timestamp, exercising OnEvict/OnFill
			// interactions with the directory state.
			for _, cc := range h.SecCaches(ctx) {
				v := saveColumn(cc.Cache, cc.LocalCtx)
				cc.Cache.Sec().RestoreColumn(cc.LocalCtx, v, uint64(i), uint64(i)+1)
			}
			record(i, 0, Result{})
		case r < 97:
			h.FlushAll()
			record(i, 0, Result{})
		default:
			res := h.Access(uint64(i), ctx, addr, Load)
			record(i, 0, res)
		}
	}
}

// TestDirectoryCoherenceRandom is the randomized property test from the
// issue: mixed load/store/flush/context-switch streams over 2-8 cores with
// CoherenceCheck asserting directory == brute force on every coherence
// event, plus a full CheckCoherence audit between bursts.
func TestDirectoryCoherenceRandom(t *testing.T) {
	for _, cores := range []int{2, 3, 4, 8} {
		for _, mode := range []SecMode{SecOff, SecTimeCache, SecFTM} {
			for _, prefetch := range []bool{false, true} {
				name := fmt.Sprintf("%dcore-%v-prefetch=%v", cores, mode, prefetch)
				t.Run(name, func(t *testing.T) {
					cfg := smallHierarchyConfig(cores, mode)
					cfg.NextLinePrefetch = prefetch
					cfg.CoherenceCheck = true
					h := NewHierarchy(cfg)
					if !h.DirectoryEnabled() {
						t.Fatal("directory should be enabled for this config")
					}
					rng := rand.New(rand.NewSource(int64(cores)*1000 + int64(mode)*10 + 1))
					for burst := 0; burst < 8; burst++ {
						driveRandomOps(t, h, rng, 500, func(int, uint64, Result) {})
						if err := h.CheckCoherence(); err != nil {
							t.Fatalf("burst %d: %v", burst, err)
						}
					}
				})
			}
		}
	}
}

// TestDirectoryMatchesBroadcast drives identical random streams through a
// directory hierarchy and a broadcast (DisableDirectory) hierarchy and
// requires byte-identical observable behavior: every per-op Result and
// flush latency, and every final stats counter, must match. This is what
// makes experiment CSVs byte-identical between the two paths.
func TestDirectoryMatchesBroadcast(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		for _, mode := range []SecMode{SecOff, SecTimeCache, SecFTM} {
			t.Run(fmt.Sprintf("%dcore-%v", cores, mode), func(t *testing.T) {
				mk := func(disable bool) *Hierarchy {
					cfg := smallHierarchyConfig(cores, mode)
					cfg.DisableDirectory = disable
					return NewHierarchy(cfg)
				}
				hDir, hBcast := mk(false), mk(true)
				if !hDir.DirectoryEnabled() || hBcast.DirectoryEnabled() {
					t.Fatal("directory enablement wrong")
				}
				const ops = 4000
				type obs struct {
					lat uint64
					res Result
				}
				a := make([]obs, ops)
				b := make([]obs, ops)
				seed := int64(cores)*77 + int64(mode)
				driveRandomOps(t, hDir, rand.New(rand.NewSource(seed)), ops,
					func(op int, lat uint64, res Result) { a[op] = obs{lat, res} })
				driveRandomOps(t, hBcast, rand.New(rand.NewSource(seed)), ops,
					func(op int, lat uint64, res Result) { b[op] = obs{lat, res} })
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("op %d diverged: directory %+v, broadcast %+v", i, a[i], b[i])
					}
				}
				ca, cb := hDir.Caches(), hBcast.Caches()
				for i := range ca {
					if ca[i].Stats != cb[i].Stats {
						t.Errorf("cache %s stats diverged:\n directory %+v\n broadcast %+v",
							ca[i].Name(), ca[i].Stats, cb[i].Stats)
					}
					if ca[i].Occupancy() != cb[i].Occupancy() {
						t.Errorf("cache %s occupancy %d != %d", ca[i].Name(), ca[i].Occupancy(), cb[i].Occupancy())
					}
				}
			})
		}
	}
}

// TestBackInvalidateClearsSBits is the regression test that inclusive
// back-invalidation still clears s-bits under the directory path: when an
// LLC victim displaces a line out of an L1, the L1 copy must be gone and
// its s-bit column cleared, so a later refill is a fresh fill (not a stale
// visible hit for a context that never re-accessed it).
func TestBackInvalidateClearsSBits(t *testing.T) {
	cfg := smallHierarchyConfig(2, SecTimeCache)
	cfg.CoherenceCheck = true
	h := NewHierarchy(cfg)
	if !h.DirectoryEnabled() {
		t.Fatal("directory should be enabled")
	}

	const target = 0x0 // line 0, LLC set 0
	h.Access(0, 0, target, Load)
	l1d := h.L1D(0)
	idx := l1d.Probe(target)
	if idx < 0 {
		t.Fatal("target not in L1D after load")
	}
	if !l1d.Sec().Visible(idx, 0) {
		t.Fatal("target s-bit not set after load")
	}

	// Thrash LLC set 0 with conflicting lines until the target's LLC slot is
	// reclaimed; inclusion then back-invalidates the L1 copy.
	llcSets := h.LLC().Sets()
	for i := 1; h.LLC().Probe(target) >= 0; i++ {
		if i > 64 {
			t.Fatal("LLC never evicted the target line")
		}
		conflict := uint64(i*llcSets) * LineSize // same LLC set as target
		h.Access(uint64(i), 1, conflict, Load)
	}
	if got := l1d.Probe(target); got >= 0 {
		t.Fatalf("L1D still holds line %#x at %d after inclusive LLC eviction", uint64(target), got)
	}
	if err := h.CheckCoherence(); err != nil {
		t.Fatal(err)
	}

	// Refill and confirm the line behaves as fresh: the invalidation must
	// have cleared the old s-bit via OnEvict, so the refill sets a new one
	// and visibility belongs to the refilling context only.
	res := h.Access(100, 0, target, Load)
	if res.Hit {
		t.Fatalf("refill after back-invalidation was an L1 hit: %+v", res)
	}
	idx = l1d.Probe(target)
	if idx < 0 {
		t.Fatal("target not in L1D after refill")
	}
	if !l1d.Sec().Visible(idx, 0) {
		t.Fatal("refilled line not visible to refilling context")
	}
}

// TestCoherenceNoAllocs asserts the snoop/invalidate path is allocation
// free on both the directory and broadcast implementations: the seed
// allocated a []*Cache slice per store upgrade. Skipped under -race, which
// adds instrumentation allocations.
func TestCoherenceNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	for _, disableDir := range []bool{false, true} {
		name := "directory"
		if disableDir {
			name = "broadcast"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultHierarchyConfig()
			cfg.Cores = 4
			cfg.DisableDirectory = disableDir
			h := NewHierarchy(cfg)
			const addr = 0x40000
			var i uint64
			avg := testing.AllocsPerRun(200, func() {
				h.Access(i, 0, addr, Load)  // refill / downgrade owner
				h.Access(i, 1, addr, Load)  // second sharer
				h.Access(i, 0, addr, Store) // upgrade: invalidateOtherL1s
				h.Access(i, 2, addr, Load)  // miss + snoopDirty on owner
				i++
			})
			if avg != 0 {
				t.Fatalf("snoop/invalidate path allocates %.1f allocs/op, want 0", avg)
			}
		})
	}
}

// TestContextSwitchNoAllocs asserts the kernel-style column save/restore
// (buffer reuse via SaveColumnInto) is allocation free, pinning the
// BenchmarkContextSwitchRestore result at 0 allocs/op.
func TestContextSwitchNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	cfg := DefaultHierarchyConfig()
	cfg.Mode = SecTimeCache
	h := NewHierarchy(cfg)
	for i := 0; i < 4096; i++ {
		h.Access(uint64(i), 0, uint64(i)*LineSize, Load)
	}
	secCaches := h.SecCaches(0)
	bufs := make([]core.SecVec, len(secCaches))
	for i, cc := range secCaches {
		bufs[i] = make(core.SecVec, core.VecWords(cc.Cache.Lines()))
	}
	var ts uint64
	avg := testing.AllocsPerRun(100, func() {
		for j, cc := range secCaches {
			cc.Cache.Sec().SaveColumnInto(cc.LocalCtx, bufs[j])
			cc.Cache.Sec().RestoreColumn(cc.LocalCtx, bufs[j], ts, ts+1)
		}
		ts++
	})
	if avg != 0 {
		t.Fatalf("context-switch save/restore allocates %.1f allocs/op, want 0", avg)
	}
}
