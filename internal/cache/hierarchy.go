package cache

import (
	"fmt"
	"math/bits"

	"timecache/internal/clock"
	"timecache/internal/core"
	"timecache/internal/replacement"
)

// SecMode selects which defense, if any, the hierarchy applies.
type SecMode int

// Defense modes.
const (
	// SecOff is the insecure baseline: every resident line hits.
	SecOff SecMode = iota
	// SecTimeCache is the paper's defense: per-context s-bits at every
	// level, saved/restored across context switches with Tc/Ts updates.
	SecTimeCache
	// SecFTM is the First Time Miss baseline (paper §VIII-B2): presence
	// bits per core at the LLC only, with no context-switch bookkeeping.
	SecFTM
)

func (m SecMode) String() string {
	switch m {
	case SecOff:
		return "baseline"
	case SecTimeCache:
		return "timecache"
	case SecFTM:
		return "ftm"
	default:
		return fmt.Sprintf("SecMode(%d)", int(m))
	}
}

// HierarchyConfig describes a full memory hierarchy.
type HierarchyConfig struct {
	Cores          int
	ThreadsPerCore int

	L1Size  int
	L1Ways  int
	L1Lat   uint64
	LLCSize int
	LLCWays int
	LLCLat  uint64

	// DRAMLat is the memory access latency in cycles.
	DRAMLat uint64
	// RemoteL1Lat is the extra latency of a dirty line forwarded from
	// another core's L1 (between LLC and DRAM; needed for the
	// invalidate+transfer attack of §VII-B).
	RemoteL1Lat uint64

	// FlushBase is the latency of a clflush that finds nothing cached;
	// FlushPresentExtra is added when the line was resident, and
	// FlushDirtyExtra when a dirty copy had to be written back. The
	// differences are the flush+flush channel (§VII-C); setting
	// ConstantTimeFlush charges FlushBase+FlushPresentExtra+FlushDirtyExtra
	// always (the paper's suggested mitigation: dummy writeback).
	FlushBase         uint64
	FlushPresentExtra uint64
	FlushDirtyExtra   uint64
	ConstantTimeFlush bool

	Policy     replacement.Kind
	PolicySeed uint64

	Mode SecMode
	// Sec configures TimeCache metadata (timestamp width, gate-level).
	Sec core.Config

	// Partitioned enables DAWG-lite way-partitioning of every cache across
	// security domains (defense baseline for ablation). The active domain
	// of each core is set by the OS at context switch via SetActiveDomain,
	// so time-multiplexed processes are isolated too.
	Partitioned bool
	// PartitionDomains is the number of security domains when Partitioned
	// (DAWG supports at most 16); defaults to 2.
	PartitionDomains int
	// IndexRand, when nonzero, enables CEASER-lite index randomization of
	// the LLC with the given key.
	IndexRand uint64

	// NextLinePrefetch enables a simple next-line prefetcher: every demand
	// miss also fills lineAddr+64 in the background (no latency charged to
	// the triggering access). Prefetched lines carry the *requesting*
	// context's s-bit, so prefetching does not weaken TimeCache: a line
	// prefetched on behalf of the victim is still a first access for the
	// attacker.
	NextLinePrefetch bool

	// DisableDirectory forces the broadcast (probe-every-core) coherence
	// implementation even where the LLC sharer directory would apply.
	// Used for A/B benchmarking the two paths; the directory is also
	// bypassed automatically for single-core hierarchies (nothing to
	// snoop), way-partitioned mode (one cache can hold duplicate copies
	// of a line, which a per-core presence bit cannot represent), and
	// beyond 64 cores (presence mask width).
	DisableDirectory bool
	// CoherenceCheck cross-checks the sharer directory against a
	// brute-force probe of every L1 after every coherence event and
	// panics on divergence. Debug mode (-coherence-check on the CLIs);
	// costs O(cores) per access.
	CoherenceCheck bool
}

// DefaultHierarchyConfig mirrors the paper's gem5 setup: 32 KB 8-way L1I and
// L1D, 2 MB 16-way LLC, TimingSimpleCPU-style latencies at 2 GHz.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		Cores:             1,
		ThreadsPerCore:    1,
		L1Size:            32 << 10,
		L1Ways:            8,
		L1Lat:             2,
		LLCSize:           2 << 20,
		LLCWays:           16,
		LLCLat:            20,
		DRAMLat:           200,
		RemoteL1Lat:       60,
		FlushBase:         40,
		FlushPresentExtra: 40,
		FlushDirtyExtra:   40,
		Policy:            replacement.LRU,
		Sec:               core.DefaultConfig(),
	}
}

// Result describes one memory access.
type Result struct {
	// Latency is the total cycles the access took.
	Latency uint64
	// Hit reports whether the access was serviced as an L1 hit (visible).
	Hit bool
	// FirstAccess reports whether any level delayed the access because a
	// resident line's s-bit was clear.
	FirstAccess bool
	// Level is the level that supplied the data: 1 = L1, 2 = LLC,
	// 3 = memory (or remote L1 forward).
	Level int
}

// Observer receives one callback per completed memory access, with the full
// request trail. It is the hierarchy's telemetry hook: when no observer is
// installed the Serve hot path pays only a single nil check (see
// BenchmarkAccessTelemetryDisabled). Implementations run synchronously
// inside Serve, must be fast, and must not retain r past the call — the
// Request is reused for the next access.
type Observer interface {
	ObserveAccess(r *Request)
}

// Hierarchy is a multi-core cache hierarchy with a shared inclusive LLC.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i []*Cache // per core
	l1d []*Cache // per core
	llc *Cache
	// dir is the LLC sharer directory (see directory.go); nil when the
	// hierarchy uses the broadcast coherence fallback.
	dir *directory
	obs Observer
	// activeDomain is each core's current security domain (partitioned
	// mode); the OS updates it at context switches.
	activeDomain []int
	// def is the installed runtime defense (see defense.go); nil when the
	// configured mechanism is structural (s-bits, partitioning, flushes),
	// which keeps the per-access path at one nil check exactly like obs.
	def Defense
	// scratch backs the Access/Flush compatibility wrappers: a long-lived
	// Request so callers without their own (tests, attack harnesses) still
	// pay zero allocations per access.
	scratch Request
}

// SetObserver installs (or, with nil, removes) the access observer.
func (h *Hierarchy) SetObserver(o Observer) { h.obs = o }

// SetActiveDomain records the security domain of the process now running
// on a core; cache partitioning confines its fills and lookups to that
// domain's ways.
func (h *Hierarchy) SetActiveDomain(core, domain int) {
	if h.cfg.Partitioned {
		h.activeDomain[core] = domain % h.partitionDomains()
	}
}

func (h *Hierarchy) partitionDomains() int {
	if h.cfg.PartitionDomains > 0 {
		return h.cfg.PartitionDomains
	}
	return 2
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 || cfg.ThreadsPerCore <= 0 {
		panic("cache: cores and threads must be positive")
	}
	h := &Hierarchy{cfg: cfg}
	totalCtx := cfg.Cores * cfg.ThreadsPerCore

	l1SecCfg := func() (*core.Config, int) {
		if cfg.Mode == SecTimeCache {
			c := cfg.Sec
			return &c, cfg.ThreadsPerCore
		}
		return nil, 0
	}
	llcSecCfg := func() (*core.Config, int) {
		switch cfg.Mode {
		case SecTimeCache:
			c := cfg.Sec
			return &c, totalCtx
		case SecFTM:
			// FTM tracks presence per core, not per context, and never
			// saves/restores: the bits persist across context switches.
			c := cfg.Sec
			return &c, cfg.Cores
		}
		return nil, 0
	}

	h.activeDomain = make([]int, cfg.Cores)
	var l1Part, llcPart func(int) (int, int)
	if cfg.Partitioned {
		// The partition is keyed by the security domain active on the
		// accessing context's core, so per-process isolation holds even
		// when processes time-share one hardware context.
		domains := h.partitionDomains()
		byDomain := func(ways int) func(int) (int, int) {
			per := ways / domains
			if per == 0 {
				per = 1
			}
			return func(ctx int) (int, int) {
				d := h.activeDomain[ctx/cfg.ThreadsPerCore]
				return (d * per) % ways, per
			}
		}
		l1Part = byDomain(cfg.L1Ways)
		llcPart = byDomain(cfg.LLCWays)
	}

	for c := 0; c < cfg.Cores; c++ {
		sec, n := l1SecCfg()
		h.l1i = append(h.l1i, New(Config{
			Name: fmt.Sprintf("l1i%d", c), Size: cfg.L1Size, Ways: cfg.L1Ways,
			Latency: cfg.L1Lat, Policy: cfg.Policy, PolicySeed: cfg.PolicySeed + uint64(c),
			Sec: sec, SecContexts: n, Partition: l1Part,
		}))
		sec, n = l1SecCfg()
		h.l1d = append(h.l1d, New(Config{
			Name: fmt.Sprintf("l1d%d", c), Size: cfg.L1Size, Ways: cfg.L1Ways,
			Latency: cfg.L1Lat, Policy: cfg.Policy, PolicySeed: cfg.PolicySeed + 100 + uint64(c),
			Sec: sec, SecContexts: n, Partition: l1Part,
		}))
	}
	var idx func(uint64) uint64
	if cfg.IndexRand != 0 {
		key := cfg.IndexRand
		idx = func(lineAddr uint64) uint64 {
			x := (lineAddr >> LineShift) ^ key
			x ^= x >> 33
			x *= 0xFF51AFD7ED558CCD
			x ^= x >> 33
			return x
		}
	}
	sec, n := llcSecCfg()
	h.llc = New(Config{
		Name: "llc", Size: cfg.LLCSize, Ways: cfg.LLCWays,
		Latency: cfg.LLCLat, Policy: cfg.Policy, PolicySeed: cfg.PolicySeed + 1000,
		Sec: sec, SecContexts: n, Partition: llcPart, Index: idx,
	})
	if cfg.Cores > 1 && cfg.Cores <= 64 && !cfg.Partitioned && !cfg.DisableDirectory {
		h.dir = newDirectory(h.llc)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1I returns core c's instruction cache.
func (h *Hierarchy) L1I(c int) *Cache { return h.l1i[c] }

// L1D returns core c's data cache.
func (h *Hierarchy) L1D(c int) *Cache { return h.l1d[c] }

// LLC returns the shared last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// CoreOf maps a global hardware context to its core.
func (h *Hierarchy) CoreOf(ctx int) int {
	if h.cfg.ThreadsPerCore == 1 {
		return ctx // no SMT: skip the division on the per-access path
	}
	return ctx / h.cfg.ThreadsPerCore
}

// threadOf maps a global hardware context to its intra-core thread index.
func (h *Hierarchy) threadOf(ctx int) int {
	if h.cfg.ThreadsPerCore == 1 {
		return 0
	}
	return ctx % h.cfg.ThreadsPerCore
}

// Contexts returns the total number of hardware contexts.
func (h *Hierarchy) Contexts() int { return h.cfg.Cores * h.cfg.ThreadsPerCore }

// llcCtx maps a global context to the LLC's local context index.
func (h *Hierarchy) llcCtx(ctx int) int {
	if h.cfg.Mode == SecFTM {
		return h.CoreOf(ctx)
	}
	return ctx
}

// Access performs one memory access by global hardware context ctx at the
// line containing addr, at simulation time now. It is a compatibility
// wrapper over Serve using the hierarchy's scratch Request; callers that
// want the full trail (or already own a Request) use Serve directly.
func (h *Hierarchy) Access(now clock.Cycles, ctx int, addr uint64, kind Kind) Result {
	r := &h.scratch
	r.Now, r.Ctx, r.Addr, r.Kind = now, ctx, addr, kind
	h.Serve(r)
	return r.Result()
}

// Serve performs the memory access described by r's input fields (Now, Ctx,
// Addr, Kind), filling r's response trail in place. The observer, if any,
// sees the completed trail once per access.
func (h *Hierarchy) Serve(r *Request) {
	if h.def != nil {
		// The defense hook runs first so state changes it makes (e.g. a
		// Clepsydra-style timed eviction) are visible to this access.
		h.def.OnAccess(r)
	}
	r.beginTrail()
	h.serve(r)
	if h.cfg.CoherenceCheck {
		h.verifyLine(r.Addr&^(LineSize-1), "access")
	}
	if h.obs != nil {
		h.obs.ObserveAccess(r)
	}
}

func (h *Hierarchy) serve(r *Request) {
	lineAddr := r.Addr &^ (LineSize - 1)
	corei := h.CoreOf(r.Ctx)
	l1 := h.l1d[corei]
	if r.Kind == Fetch {
		l1 = h.l1i[corei]
	}
	lctx := h.threadOf(r.Ctx)

	l1.Stats.Accesses++
	if idx := l1.lookup(lineAddr, lctx); idx >= 0 {
		if r.Kind == Store && l1.lines[idx].st == shared {
			hint := int(l1.lines[idx].llcHint)
			h.invalidateOtherL1s(lineAddr, corei, hint)
			l1.lines[idx].st = modified
			if h.dir != nil {
				h.dir.setOwner(hint, lineAddr, corei)
			}
			r.Upgrade = true
		}
		l1.touch(idx)
		if l1.visible(idx, lctx) {
			l1.Stats.Hits++
			r.L1 = LevelTrail{OutcomeHit, l1.cfg.Latency}
			r.Latency = l1.cfg.Latency
			r.Hit = true
			r.Level = 1
			return
		}
		// First access at L1: send the request down, discard the response,
		// then serve from the (unchanged) L1 copy.
		l1.Stats.FirstAccess++
		r.L1 = LevelTrail{OutcomeFirstAccess, l1.cfg.Latency}
		h.serveLLC(r, lineAddr, false)
		l1.sec.OnFirstAccess(idx, lctx)
		r.Latency = l1.cfg.Latency + r.LLC.Cycles + r.MemCycles
		r.FirstAccess = true
		return
	}
	l1.Stats.Misses++
	r.L1 = LevelTrail{OutcomeMiss, l1.cfg.Latency}

	// Check the other cores' L1s for a dirty copy before going to the LLC.
	r.DirtyForward = h.snoopDirty(lineAddr, corei, r.Kind)
	h.serveLLC(r, lineAddr, true)
	if r.DirtyForward && r.Level == 2 {
		// The forward is only observable when the LLC services the request;
		// if the response waits for DRAM (a miss, or a TimeCache first
		// access), the forward hides behind the longer DRAM latency —
		// which is exactly how TimeCache defeats invalidate+transfer
		// (paper §VII-B).
		r.ForwardCycles = h.cfg.RemoteL1Lat
	}

	st := shared
	if r.Kind == Store {
		h.invalidateOtherL1s(lineAddr, corei, r.llcIdx)
		st = modified
	}
	vic := l1.victim(lineAddr, lctx)
	h.evictL1Line(l1, vic, corei, r.Kind == Fetch)
	l1.fill(vic, lineAddr, st, lctx, r.Now)
	if h.dir != nil {
		l1.lines[vic].llcHint = int32(r.llcIdx)
		h.dir.addAt(r.llcIdx, lineAddr, corei, r.Kind == Fetch, st == modified)
	}

	if h.cfg.NextLinePrefetch {
		h.prefetch(r.Now, r.Ctx, lineAddr+LineSize, r.Kind)
		r.Prefetched = true
	}

	r.Latency = l1.cfg.Latency + r.ForwardCycles + r.LLC.Cycles + r.MemCycles
}

// prefetch installs lineAddr into the requesting context's L1 (and the LLC
// via the normal fill path) without charging latency: a background fill
// triggered by a demand miss on the previous line. It never displaces a
// resident copy and never prefetches across a snoop conflict.
func (h *Hierarchy) prefetch(now clock.Cycles, ctx int, lineAddr uint64, kind Kind) {
	corei := h.CoreOf(ctx)
	l1 := h.l1d[corei]
	if kind == Fetch {
		l1 = h.l1i[corei]
	}
	lctx := h.threadOf(ctx)
	if l1.lookup(lineAddr, lctx) >= 0 {
		return // already resident in the requester's L1 (partition)
	}
	// Bring the line into the LLC (a normal fill) and the L1, attributed
	// to the requesting context.
	llc := h.llc
	llcCtx := h.llcCtx(ctx)
	llcIdx := llc.lookup(lineAddr, llcCtx)
	if llcIdx < 0 {
		vic := llc.victim(lineAddr, llcCtx)
		if llc.tags[vic] != 0 {
			h.backInvalidate(llc.tagAt(vic))
		}
		if h.dir != nil {
			h.dir.onLLCFill(vic, lineAddr)
		}
		llc.fill(vic, lineAddr, shared, llcCtx, now)
		llcIdx = vic
	} else if llc.sec != nil && !llc.sec.Visible(llcIdx, llcCtx) {
		// A prefetch on the requester's behalf pays its first access here,
		// invisibly to timing (the prefetcher waited for memory anyway).
		llc.Stats.FirstAccess++
		llc.sec.OnFirstAccess(llcIdx, llcCtx)
	}
	vic := l1.victim(lineAddr, lctx)
	h.evictL1Line(l1, vic, corei, kind == Fetch)
	l1.fill(vic, lineAddr, shared, lctx, now)
	if h.dir != nil {
		l1.lines[vic].llcHint = int32(llcIdx)
		h.dir.addAt(llcIdx, lineAddr, corei, kind == Fetch, false)
	}
	if h.cfg.CoherenceCheck {
		h.verifyLine(lineAddr, "prefetch")
	}
}

// serveLLC handles a request arriving at the LLC, recording the level's
// outcome in r.LLC, any DRAM cycles in r.MemCycles, the supplying level in
// r.Level, and the LLC line index now holding lineAddr in r.llcIdx (-1 on
// the no-fill miss path); callers attach directory state through r.llcIdx
// without re-probing the set. fill controls whether a miss allocates (false
// on the first-access descend path: the upper level already holds the data,
// so the response is discarded and nothing fills). Note an LLC tag hit does
// not set r.Hit — that summary bit means "L1 hit" to the harness, exactly
// as the old (Result, int) plumbing discarded the inner Hit.
func (h *Hierarchy) serveLLC(r *Request, lineAddr uint64, fill bool) {
	llc := h.llc
	lctx := h.llcCtx(r.Ctx)
	llc.Stats.Accesses++
	if idx := llc.lookup(lineAddr, lctx); idx >= 0 {
		llc.touch(idx)
		if llc.visible(idx, lctx) {
			llc.Stats.Hits++
			r.LLC = LevelTrail{OutcomeHit, llc.cfg.Latency}
			r.Level = 2
			r.llcIdx = idx
			return
		}
		// First access at the LLC: continue to memory, discard the data.
		llc.Stats.FirstAccess++
		llc.sec.OnFirstAccess(idx, lctx)
		r.LLC = LevelTrail{OutcomeFirstAccess, llc.cfg.Latency}
		r.MemCycles = h.cfg.DRAMLat
		r.FirstAccess = true
		r.Level = 3
		r.llcIdx = idx
		return
	}
	llc.Stats.Misses++
	r.LLC = LevelTrail{OutcomeMiss, llc.cfg.Latency}
	r.MemCycles = h.cfg.DRAMLat
	r.Level = 3
	if !fill {
		// Descend path with no LLC copy (inclusion was broken by a flush
		// racing the request): just report the memory latency.
		r.llcIdx = -1
		return
	}
	vic := llc.victim(lineAddr, lctx)
	if llc.tags[vic] != 0 {
		// Inclusive LLC: evicting a line removes it from every L1.
		h.backInvalidate(llc.tagAt(vic))
	}
	if h.dir != nil {
		h.dir.onLLCFill(vic, lineAddr)
	}
	llc.fill(vic, lineAddr, shared, lctx, r.Now)
	r.llcIdx = vic
}

// snoopDirty checks other cores' L1 caches for a modified copy of lineAddr.
// On a load the remote copy is downgraded to shared (with writeback); on a
// store it is invalidated. Returns whether a dirty forward occurred.
//
// With the sharer directory the dirty owner is read straight off the
// line's entry — one lookup instead of probing every other core's L1D.
func (h *Hierarchy) snoopDirty(lineAddr uint64, exceptCore int, kind Kind) bool {
	if d := h.dir; d != nil {
		// Per-set owned counter: a set with no dirty owners (the common case
		// for loads over unshared data) rejects the snoop with one array
		// load, no LLC probe.
		if !d.mayHaveOwner(lineAddr) {
			return false
		}
		e := d.find(lineAddr)
		if e == nil || e.own == dirNoOwner {
			return false
		}
		c := e.ownerCore()
		if c == exceptCore {
			// The requester's own L1D owns the line (an instruction fetch
			// missing in the L1I); broadcast snooping skips the requesting
			// core, so the directory path must too.
			return false
		}
		l1 := h.l1d[c]
		idx := l1.Probe(lineAddr)
		if idx < 0 {
			panic(fmt.Sprintf("cache: directory names core %d owner of line %#x but its L1D lacks it", c, lineAddr))
		}
		l1.Stats.Writebacks++
		h.markLLCDirty(lineAddr)
		if kind == Store {
			l1.invalidate(idx)
			e.data &^= uint64(1) << uint(c)
			e.own = dirNoOwner
			d.noteOwn(lineAddr, e, -1)
			d.release(lineAddr, e)
		} else {
			l1.lines[idx].st = shared
			e.own = dirNoOwner
			d.noteOwn(lineAddr, e, -1)
		}
		if h.cfg.CoherenceCheck {
			h.verifyLine(lineAddr, "snoopDirty")
		}
		return true
	}
	found := false
	for c := 0; c < h.cfg.Cores; c++ {
		if c == exceptCore {
			continue
		}
		l1 := h.l1d[c]
		if idx := l1.Probe(lineAddr); idx >= 0 && l1.lines[idx].st == modified {
			found = true
			l1.Stats.Writebacks++
			h.markLLCDirty(lineAddr)
			if kind == Store {
				l1.invalidate(idx)
			} else {
				l1.lines[idx].st = shared
			}
		}
	}
	return found
}

// invalidateL1Copy invalidates one cache's copy of lineAddr if resident,
// writing a modified copy back into the LLC first. Shared helper of the
// directory and broadcast invalidation paths so both have identical
// counter and state effects.
func (h *Hierarchy) invalidateL1Copy(l1 *Cache, lineAddr uint64) {
	if idx := l1.Probe(lineAddr); idx >= 0 {
		if l1.lines[idx].st == modified {
			h.markLLCDirty(lineAddr)
		}
		l1.invalidate(idx)
	}
}

// invalidateOtherL1s removes copies of lineAddr from every L1 except the
// writing core's (the write-invalidate upgrade). With the directory only
// the set bits of the sharer masks are visited — O(sharers), and a line
// nobody else caches costs one directory lookup. llcHint is the line's LLC
// slot when the caller knows it (the writer's llcHint, or the index the
// preceding accessLLC returned), or -1.
func (h *Hierarchy) invalidateOtherL1s(lineAddr uint64, exceptCore, llcHint int) {
	if d := h.dir; d != nil {
		e := d.at(llcHint, lineAddr)
		if e == nil {
			return
		}
		keep := uint64(1) << uint(exceptCore)
		for m := e.data &^ keep; m != 0; m &= m - 1 {
			h.invalidateL1Copy(h.l1d[bits.TrailingZeros64(m)], lineAddr)
		}
		for m := e.inst &^ keep; m != 0; m &= m - 1 {
			h.invalidateL1Copy(h.l1i[bits.TrailingZeros64(m)], lineAddr)
		}
		e.data &= keep
		e.inst &= keep
		if e.own != dirNoOwner && e.ownerCore() != exceptCore {
			e.own = dirNoOwner
			d.noteOwn(lineAddr, e, -1)
		}
		d.release(lineAddr, e)
		if h.cfg.CoherenceCheck {
			h.verifyLine(lineAddr, "invalidateOtherL1s")
		}
		return
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if c == exceptCore {
			continue
		}
		h.invalidateL1Copy(h.l1d[c], lineAddr)
		h.invalidateL1Copy(h.l1i[c], lineAddr)
	}
}

// backInvalidate removes lineAddr from every L1 (inclusive LLC eviction).
func (h *Hierarchy) backInvalidate(lineAddr uint64) {
	if d := h.dir; d != nil {
		e := d.find(lineAddr)
		if e == nil {
			return
		}
		for m := e.data; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if idx := h.l1d[c].Probe(lineAddr); idx >= 0 {
				h.l1d[c].invalidate(idx)
			}
		}
		for m := e.inst; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if idx := h.l1i[c].Probe(lineAddr); idx >= 0 {
				h.l1i[c].invalidate(idx)
			}
		}
		if e.own != dirNoOwner {
			d.noteOwn(lineAddr, e, -1)
		}
		*e = dirEntry{}
		d.release(lineAddr, e)
		if h.cfg.CoherenceCheck {
			h.verifyLine(lineAddr, "backInvalidate")
		}
		return
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if idx := h.l1d[c].Probe(lineAddr); idx >= 0 {
			h.l1d[c].invalidate(idx)
		}
		if idx := h.l1i[c].Probe(lineAddr); idx >= 0 {
			h.l1i[c].invalidate(idx)
		}
	}
}

func (h *Hierarchy) markLLCDirty(lineAddr uint64) {
	if idx := h.llc.Probe(lineAddr); idx >= 0 {
		h.llc.lines[idx].dirty = true
	}
}

// markLLCDirtyAt is markLLCDirty with a verified LLC slot hint.
func (h *Hierarchy) markLLCDirtyAt(hint int, lineAddr uint64) {
	if hint >= 0 && hint < len(h.llc.lines) && h.llc.tags[hint] == lineAddr|tagValid {
		h.llc.lines[hint].dirty = true
		return
	}
	h.markLLCDirty(lineAddr)
}

// evictL1Line handles displacement of an L1 line prior to a fill. A modified
// line is written back into the LLC (marking it dirty there), and the
// directory drops the vacating core's presence bit. The line's llcHint
// makes both steps probe-free in the common (inclusion-intact) case.
func (h *Hierarchy) evictL1Line(l1 *Cache, idx, corei int, inst bool) {
	l := &l1.lines[idx]
	if l.st == invalid {
		return
	}
	tag := l1.tagAt(idx)
	if h.dir != nil {
		hint := int(l.llcHint)
		if l.st == modified {
			h.markLLCDirtyAt(hint, tag)
		}
		h.dir.remove(hint, tag, corei, inst)
		return
	}
	if l.st == modified {
		h.markLLCDirty(tag)
	}
}

// ServeFlush performs the clflush described by r's Now/Ctx/Addr, recording
// residency and dirtiness on the trail (FlushPresent, FlushDirty) and the
// charged cycles in r.Latency. r.Kind is forced to FlushOp. Flushes are not
// reported to the observer — matching the pre-trail behavior, where only
// Access produced a callback.
func (h *Hierarchy) ServeFlush(r *Request) {
	r.Kind = FlushOp
	r.beginTrail()
	lineAddr := r.Addr &^ (LineSize - 1)
	present, dirty := h.flushLine(lineAddr)
	r.FlushPresent, r.FlushDirty = present, dirty
	if h.cfg.ConstantTimeFlush {
		r.Latency = h.cfg.FlushBase + h.cfg.FlushPresentExtra + h.cfg.FlushDirtyExtra
		return
	}
	r.Latency = h.cfg.FlushBase
	if present {
		r.Latency += h.cfg.FlushPresentExtra
	}
	if dirty {
		r.Latency += h.cfg.FlushDirtyExtra
	}
}

// flushLine invalidates lineAddr at every level, reporting whether any copy
// was resident and whether a dirty copy had to be written back.
func (h *Hierarchy) flushLine(lineAddr uint64) (present, dirty bool) {
	if d := h.dir; d != nil {
		if e := d.find(lineAddr); e != nil {
			for m := e.data; m != 0; m &= m - 1 {
				c := bits.TrailingZeros64(m)
				if idx := h.l1d[c].Probe(lineAddr); idx >= 0 {
					present = true
					if h.l1d[c].invalidate(idx) {
						dirty = true
					}
				}
			}
			for m := e.inst; m != 0; m &= m - 1 {
				c := bits.TrailingZeros64(m)
				if idx := h.l1i[c].Probe(lineAddr); idx >= 0 {
					present = true
					if h.l1i[c].invalidate(idx) {
						dirty = true
					}
				}
			}
			if e.own != dirNoOwner {
				d.noteOwn(lineAddr, e, -1)
			}
			*e = dirEntry{}
			d.release(lineAddr, e)
		}
	} else {
		for c := 0; c < h.cfg.Cores; c++ {
			if idx := h.l1d[c].Probe(lineAddr); idx >= 0 {
				present = true
				if h.l1d[c].invalidate(idx) {
					dirty = true
				}
			}
			if idx := h.l1i[c].Probe(lineAddr); idx >= 0 {
				present = true
				if h.l1i[c].invalidate(idx) {
					dirty = true
				}
			}
		}
	}
	if idx := h.llc.Probe(lineAddr); idx >= 0 {
		present = true
		if h.llc.invalidate(idx) {
			dirty = true
		}
	}
	if h.cfg.CoherenceCheck {
		h.verifyLine(lineAddr, "flush")
	}
	return present, dirty
}

// Reset returns every cache (lines, replacement state, stats, TimeCache
// metadata), the sharer directory, and the partition domain state to cold
// without reallocating, and detaches any observer. A reset hierarchy is
// indistinguishable from a freshly constructed one — machine.Reset depends
// on this to make pooled reuse produce byte-identical experiment results.
func (h *Hierarchy) Reset() {
	for c := range h.l1i {
		h.l1i[c].Reset()
		h.l1d[c].Reset()
	}
	h.llc.Reset()
	if h.dir != nil {
		h.dir.reset()
	}
	clear(h.activeDomain)
	h.obs = nil
	if h.def != nil {
		// The defense is part of the configured machine, not telemetry: it
		// stays installed, but its state must return to fresh for pooled
		// reuse to stay byte-identical with a cold build.
		h.def.Reset()
	}
}

// FlushAll invalidates every line in every cache (the flush-on-switch
// baseline defense) and resets the sharer directory.
func (h *Hierarchy) FlushAll() {
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1i[c].FlushAll()
		h.l1d[c].FlushAll()
	}
	h.llc.FlushAll()
	if h.dir != nil {
		h.dir.reset()
	}
}

// CacheCtx pairs a cache with the local context index a global hardware
// context uses there; the kernel saves/restores s-bit columns through it.
type CacheCtx struct {
	Cache    *Cache
	LocalCtx int
}

// SecCaches returns the caches (and local context indices) whose s-bit
// columns belong to global context ctx and must be saved/restored at a
// context switch. Empty unless the mode is SecTimeCache.
func (h *Hierarchy) SecCaches(ctx int) []CacheCtx {
	if h.cfg.Mode != SecTimeCache {
		return nil
	}
	corei := h.CoreOf(ctx)
	return []CacheCtx{
		{h.l1i[corei], h.threadOf(ctx)},
		{h.l1d[corei], h.threadOf(ctx)},
		{h.llc, ctx},
	}
}

// Caches returns every cache in the hierarchy, for stats reporting.
func (h *Hierarchy) Caches() []*Cache {
	out := make([]*Cache, 0, 2*h.cfg.Cores+1)
	for c := 0; c < h.cfg.Cores; c++ {
		out = append(out, h.l1i[c], h.l1d[c])
	}
	return append(out, h.llc)
}
