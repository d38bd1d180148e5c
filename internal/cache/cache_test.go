package cache

import (
	"testing"

	"timecache/internal/core"
	"timecache/internal/replacement"
)

func tinyHier(mode SecMode) *Hierarchy {
	cfg := DefaultHierarchyConfig()
	cfg.L1Size = 1 << 10 // 16 lines: 2 sets x 8 ways
	cfg.LLCSize = 8 << 10
	cfg.Mode = mode
	return NewHierarchy(cfg)
}

func TestColdMissThenHit(t *testing.T) {
	h := tinyHier(SecOff)
	r := h.Access(1, 0, 0x1000, Load)
	if r.Hit {
		t.Fatal("cold access must miss")
	}
	if r.Level != 3 {
		t.Fatalf("cold access level = %d, want 3 (memory)", r.Level)
	}
	wantMiss := h.Config().L1Lat + h.Config().LLCLat + h.Config().DRAMLat
	if r.Latency != wantMiss {
		t.Fatalf("miss latency = %d, want %d", r.Latency, wantMiss)
	}
	r = h.Access(2, 0, 0x1000, Load)
	if !r.Hit || r.Latency != h.Config().L1Lat {
		t.Fatalf("second access must be an L1 hit at %d cycles, got %+v", h.Config().L1Lat, r)
	}
}

func TestSameLineDifferentWordsHit(t *testing.T) {
	h := tinyHier(SecOff)
	h.Access(1, 0, 0x2000, Load)
	if r := h.Access(2, 0, 0x203F, Load); !r.Hit {
		t.Fatal("access within the same 64B line must hit")
	}
	if r := h.Access(3, 0, 0x2040, Load); r.Hit {
		t.Fatal("next line must miss")
	}
}

func TestL1EvictionFallsBackToLLC(t *testing.T) {
	h := tinyHier(SecOff)
	// L1: 2 sets x 8 ways. Fill set 0 with 9 distinct lines -> way conflict.
	for i := 0; i <= 8; i++ {
		h.Access(uint64(i+1), 0, uint64(i)*2*LineSize, Load) // all map to set 0
	}
	// The first line was LRU-evicted from L1 but must still be in the LLC.
	r := h.Access(100, 0, 0, Load)
	if r.Hit {
		t.Fatal("evicted line must not hit in L1")
	}
	if r.Level != 2 {
		t.Fatalf("evicted line should be served by LLC, level = %d", r.Level)
	}
}

func TestInstructionVsDataCaches(t *testing.T) {
	h := tinyHier(SecOff)
	h.Access(1, 0, 0x3000, Fetch)
	if h.L1I(0).Stats.Accesses != 1 || h.L1D(0).Stats.Accesses != 0 {
		t.Fatal("fetch must go to L1I")
	}
	h.Access(2, 0, 0x3000, Load)
	if h.L1D(0).Stats.Accesses != 1 {
		t.Fatal("load must go to L1D")
	}
	// The load missed L1D but hits the shared LLC, which the fetch filled.
	if h.LLC().Stats.Hits != 1 {
		t.Fatalf("LLC hits = %d, want 1", h.LLC().Stats.Hits)
	}
}

func TestTimeCacheFirstAccessDelaysOtherContext(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.ThreadsPerCore = 2
	cfg.Mode = SecTimeCache
	h := NewHierarchy(cfg)

	// Context 0 brings the line in.
	h.Access(1, 0, 0x4000, Load)
	// Context 1's first access: tag-resident everywhere but must be delayed
	// to memory latency and not reported as a hit.
	r := h.Access(2, 1, 0x4000, Load)
	if r.Hit {
		t.Fatal("first access by another context must not hit")
	}
	if !r.FirstAccess {
		t.Fatal("access must be flagged as first access")
	}
	want := cfg.L1Lat + cfg.LLCLat + cfg.DRAMLat
	if r.Latency != want {
		t.Fatalf("first-access latency = %d, want %d (full miss path)", r.Latency, want)
	}
	// Second access proceeds as a normal hit.
	r = h.Access(3, 1, 0x4000, Load)
	if !r.Hit || r.Latency != cfg.L1Lat {
		t.Fatalf("second access must be an L1 hit, got %+v", r)
	}
	// And context 0 is unaffected throughout.
	if r := h.Access(4, 0, 0x4000, Load); !r.Hit {
		t.Fatal("filling context must keep hitting")
	}
	if h.L1D(0).Stats.FirstAccess != 1 || h.LLC().Stats.FirstAccess != 1 {
		t.Fatalf("first-access counters: l1d=%d llc=%d, want 1 and 1",
			h.L1D(0).Stats.FirstAccess, h.LLC().Stats.FirstAccess)
	}
}

func TestTimeCacheFirstAccessServedByLLCWhenVisibleThere(t *testing.T) {
	// A context whose s-bit is set at the LLC but cleared at L1 (e.g. after
	// an L1-only eviction... modeled here by cross-core access) must see the
	// LLC latency, not DRAM (paper §V-A rationale for descending).
	cfg := DefaultHierarchyConfig()
	cfg.Cores = 2
	cfg.Mode = SecTimeCache
	h := NewHierarchy(cfg)

	// ctx 0 (core 0) loads the line: LLC s-bit set for ctx 0 only.
	h.Access(1, 0, 0x5000, Load)
	// ctx 1 (core 1) loads: first access at LLC, full memory latency.
	r := h.Access(2, 1, 0x5000, Load)
	if r.Level != 3 || !r.FirstAccess {
		t.Fatalf("cross-core first access should go to memory: %+v", r)
	}
	// Evict the line from core 1's L1 only by filling its set.
	set := (0x5000 >> LineShift) % uint64(h.L1D(1).Sets())
	for i := 0; i < h.L1D(1).Ways(); i++ {
		addr := (uint64(i+100)*uint64(h.L1D(1).Sets()) + set) << LineShift
		h.Access(uint64(10+i), 1, addr, Load)
	}
	if h.L1D(1).Probe(0x5000) >= 0 {
		t.Fatal("test setup: line should be evicted from core 1's L1")
	}
	// Re-access by ctx 1: L1 miss, but LLC hit with ctx 1's s-bit set.
	r = h.Access(100, 1, 0x5000, Load)
	if r.Level != 2 {
		t.Fatalf("re-access should be served by LLC, got level %d", r.Level)
	}
	if r.FirstAccess {
		t.Fatal("ctx 1 already paid its first access at the LLC")
	}
}

func TestFlushRemovesLineEverywhere(t *testing.T) {
	h := tinyHier(SecOff)
	h.Access(1, 0, 0x6000, Load)
	h.Flush(2, 0, 0x6000)
	if h.L1D(0).Probe(0x6000) >= 0 || h.LLC().Probe(0x6000) >= 0 {
		t.Fatal("flush must invalidate at every level")
	}
	if r := h.Access(3, 0, 0x6000, Load); r.Hit {
		t.Fatal("access after flush must miss")
	}
}

func TestFlushLatencyLeaksUnlessConstantTime(t *testing.T) {
	h := tinyHier(SecOff)
	cold := h.Flush(1, 0, 0x7000)
	h.Access(2, 0, 0x7000, Load)
	warm := h.Flush(3, 0, 0x7000)
	if warm <= cold {
		t.Fatal("flushing a resident line must take longer (the flush+flush channel)")
	}

	cfg := DefaultHierarchyConfig()
	cfg.ConstantTimeFlush = true
	h2 := NewHierarchy(cfg)
	cold2 := h2.Flush(1, 0, 0x7000)
	h2.Access(2, 0, 0x7000, Load)
	warm2 := h2.Flush(3, 0, 0x7000)
	if cold2 != warm2 {
		t.Fatalf("constant-time flush must not depend on residency: %d vs %d", cold2, warm2)
	}
}

func TestStoreInvalidatesRemoteCopies(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.Cores = 2
	h := NewHierarchy(cfg)
	h.Access(1, 0, 0x8000, Load)
	h.Access(2, 1, 0x8000, Load)
	if h.L1D(0).Probe(0x8000) < 0 || h.L1D(1).Probe(0x8000) < 0 {
		t.Fatal("both cores should hold the line")
	}
	h.Access(3, 0, 0x8000, Store)
	if h.L1D(1).Probe(0x8000) >= 0 {
		t.Fatal("store must invalidate the remote copy")
	}
}

func TestDirtyRemoteForwardLatency(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.Cores = 2
	h := NewHierarchy(cfg)
	h.Access(1, 0, 0x9000, Store) // core 0 holds modified
	r := h.Access(2, 1, 0x9000, Load)
	if r.Latency <= cfg.L1Lat+cfg.LLCLat {
		t.Fatal("dirty remote hit must cost more than an LLC hit")
	}
	// After the forward, core 0's copy is downgraded to shared: a second
	// remote load is a plain LLC hit.
	r2 := h.Access(3, 1, 0xA000, Load) // unrelated cold line for contrast
	_ = r2
	h.Access(4, 1, 0x9000, Load)
}

func TestLLCEvictionBackInvalidatesL1(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1Size = 1 << 10  // 16 lines
	cfg.LLCSize = 2 << 10 // 32 lines: 2 sets x 16 ways
	h := NewHierarchy(cfg)
	h.Access(1, 0, 0, Load)
	llcSets := h.LLC().Sets()
	// Fill the LLC set of address 0 until line 0 is evicted.
	for i := 1; i <= h.LLC().Ways(); i++ {
		h.Access(uint64(i+1), 0, uint64(i*llcSets)<<LineShift, Load)
	}
	if h.LLC().Probe(0) >= 0 {
		t.Fatal("test setup: line 0 should be evicted from LLC")
	}
	if h.L1D(0).Probe(0) >= 0 {
		t.Fatal("inclusive LLC eviction must back-invalidate the L1 copy")
	}
}

func TestPartitionedWaysIsolateFills(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.Partitioned = true
	h := NewHierarchy(cfg)
	// Domain 1 caches a line, then domain 0 floods the same set: the
	// partitions must not interfere (DAWG-lite isolation).
	h.SetActiveDomain(0, 1)
	h.Access(1000, 0, 0xF0000, Load)
	h.SetActiveDomain(0, 0)
	for i := 0; i < 64; i++ {
		h.Access(uint64(i+1), 0, uint64(i*h.L1D(0).Sets())<<LineShift, Load)
	}
	h.SetActiveDomain(0, 1)
	before := h.L1D(0).Stats.Misses
	h.Access(2000, 0, 0xF0000, Load)
	if h.L1D(0).Stats.Misses != before {
		t.Fatal("domain 1's line must survive domain 0's fills in a partitioned cache")
	}
}

func TestIndexRandomizationStillFunctions(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.IndexRand = 0xABCDEF
	h := NewHierarchy(cfg)
	h.Access(1, 0, 0xB000, Load)
	if r := h.Access(2, 0, 0xB000, Load); !r.Hit {
		t.Fatal("randomized index must still hit on re-access")
	}
}

func TestFTMModeLLCOnly(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.Cores = 2
	cfg.Mode = SecFTM
	h := NewHierarchy(cfg)
	if h.L1D(0).Sec() != nil {
		t.Fatal("FTM must not add s-bits to L1s")
	}
	if h.LLC().Sec() == nil {
		t.Fatal("FTM needs LLC presence bits")
	}
	// Cross-core reuse is delayed...
	h.Access(1, 0, 0xC000, Load)
	r := h.Access(2, 1, 0xC000, Load)
	if !r.FirstAccess {
		t.Fatal("FTM must delay cross-core reuse at the LLC")
	}
	// ...and there is no context-switch bookkeeping to do.
	if got := h.SecCaches(0); got != nil {
		t.Fatalf("FTM mode has no save/restore caches, got %d", len(got))
	}
}

func TestSecCachesTimeCache(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.Cores = 2
	cfg.ThreadsPerCore = 2
	cfg.Mode = SecTimeCache
	h := NewHierarchy(cfg)
	cc := h.SecCaches(3) // core 1, thread 1
	if len(cc) != 3 {
		t.Fatalf("expected 3 caches, got %d", len(cc))
	}
	if cc[0].Cache != h.L1I(1) || cc[1].Cache != h.L1D(1) || cc[2].Cache != h.LLC() {
		t.Fatal("wrong caches for ctx 3")
	}
	if cc[0].LocalCtx != 1 || cc[2].LocalCtx != 3 {
		t.Fatalf("wrong local contexts: %d, %d", cc[0].LocalCtx, cc[2].LocalCtx)
	}
}

func TestContextSwitchSaveRestoreEndToEnd(t *testing.T) {
	// Simulate the kernel's bookkeeping by hand: process A fills a line,
	// is preempted (column saved), process B evicts it and refills it, A is
	// restored — A must not see the new copy.
	cfg := DefaultHierarchyConfig()
	cfg.Mode = SecTimeCache
	h := NewHierarchy(cfg)
	l1d := h.L1D(0)

	h.Access(10, 0, 0xD000, Load) // process A fills
	saved := map[*Cache]core.SecVec{}
	for _, cc := range h.SecCaches(0) {
		saved[cc.Cache] = saveColumn(cc.Cache, cc.LocalCtx)
	}
	tsA := uint64(20)

	// Process B now runs on ctx 0: clear A's bits, then B re-fills the line
	// (flush first so it is B's fill, at a later Tc).
	for _, cc := range h.SecCaches(0) {
		cc.Cache.Sec().RestoreColumn(cc.LocalCtx, nil, 0, 0)
	}
	h.Flush(30, 0, 0xD000)
	h.Access(40, 0, 0xD000, Load) // B's fill at t=40 > tsA

	// Restore A.
	for _, cc := range h.SecCaches(0) {
		cc.Cache.Sec().RestoreColumn(cc.LocalCtx, saved[cc.Cache], tsA, 50)
	}
	r := h.Access(60, 0, 0xD000, Load)
	if r.Hit || !r.FirstAccess {
		t.Fatalf("A must pay a first-access miss for B's refill, got %+v", r)
	}
	if l1d.Stats.FirstAccess == 0 {
		t.Fatal("L1D should have counted a first access")
	}

	// Contrast: a line A touched that survived B untouched must still hit.
	h2 := NewHierarchy(cfg)
	h2.Access(10, 0, 0xE000, Load)
	var savedVec core.SecVec
	for _, cc := range h2.SecCaches(0) {
		if cc.Cache == h2.L1D(0) {
			savedVec = saveColumn(cc.Cache, cc.LocalCtx)
		}
	}
	h2.L1D(0).Sec().RestoreColumn(0, nil, 0, 0)
	h2.L1D(0).Sec().RestoreColumn(0, savedVec, 20, 50)
	if r := h2.Access(60, 0, 0xE000, Load); !r.Hit {
		t.Fatal("untouched line must hit after restore")
	}
}

func TestFlushAll(t *testing.T) {
	h := tinyHier(SecOff)
	for i := 0; i < 8; i++ {
		h.Access(uint64(i+1), 0, uint64(i)<<LineShift, Load)
	}
	h.FlushAll()
	if h.L1D(0).Occupancy() != 0 || h.LLC().Occupancy() != 0 {
		t.Fatal("FlushAll must empty every cache")
	}
}

func TestStatsAccounting(t *testing.T) {
	h := tinyHier(SecOff)
	h.Access(1, 0, 0x100, Load)
	h.Access(2, 0, 0x100, Load)
	h.Access(3, 0, 0x100, Store)
	s := h.L1D(0).Stats
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned size must panic")
		}
	}()
	New(Config{Name: "x", Size: 1000, Ways: 3, Policy: replacement.LRU})
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.NextLinePrefetch = true
	h := NewHierarchy(cfg)
	// A demand miss on line N must install line N+1 too.
	h.Access(1, 0, 0x9000, Load)
	if r := h.Access(2, 0, 0x9040, Load); !r.Hit {
		t.Fatal("next line must be prefetched into the L1")
	}
	// Without the prefetcher the second line misses.
	h2 := NewHierarchy(DefaultHierarchyConfig())
	h2.Access(1, 0, 0x9000, Load)
	if r := h2.Access(2, 0, 0x9040, Load); r.Hit {
		t.Fatal("control: no prefetch without the flag")
	}
}

func TestPrefetchDoesNotWeakenTimeCache(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.ThreadsPerCore = 2
	cfg.Mode = SecTimeCache
	cfg.NextLinePrefetch = true
	h := NewHierarchy(cfg)
	// Victim (ctx 0) misses on a line; prefetcher pulls in the next one.
	h.Access(1, 0, 0xA000, Load)
	// The attacker (ctx 1) probes both lines: each must be a delayed first
	// access, not a hit — prefetched fills carry only the victim's s-bit.
	for _, addr := range []uint64{0xA000, 0xA040} {
		r := h.Access(2, 1, addr, Load)
		if r.Hit {
			t.Fatalf("attacker must not get a hit on %#x from the victim's prefetch", addr)
		}
		if !r.FirstAccess {
			t.Fatalf("attacker's probe of %#x should be a first access", addr)
		}
	}
	// The victim itself hits on its prefetched line.
	if r := h.Access(3, 0, 0xA040, Load); !r.Hit {
		t.Fatal("victim must benefit from its own prefetch")
	}
}

func TestPrefetchSequentialStreamSpeedup(t *testing.T) {
	run := func(pf bool) uint64 {
		cfg := DefaultHierarchyConfig()
		cfg.NextLinePrefetch = pf
		h := NewHierarchy(cfg)
		var total uint64
		for i := uint64(0); i < 256; i++ {
			total += h.Access(i+1, 0, 0x40000+i*LineSize, Load).Latency
		}
		return total
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("prefetching should speed up a sequential stream: %d vs %d cycles", with, without)
	}
	// Roughly every other access becomes a hit.
	if with > without*3/4 {
		t.Fatalf("prefetch benefit too small: %d vs %d", with, without)
	}
}
