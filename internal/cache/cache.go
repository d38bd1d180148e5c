// Package cache models a write-back, write-allocate set-associative cache
// and a multi-core hierarchy (private L1I/L1D per core, shared inclusive
// LLC) with MESI-lite coherence, clflush, and the TimeCache per-context
// visibility checks from internal/core.
//
// The model is a timing model: caches track tags, states, and TimeCache
// metadata, while data lives solely in physical memory (stores update memory
// immediately). This keeps the simulator fast and cannot produce stale data,
// while preserving everything the paper's evaluation measures: hit/miss
// latencies, per-line metadata, eviction/invalidation/coherence events, and
// first-access misses.
package cache

import (
	"fmt"
	"math/bits"

	"timecache/internal/clock"
	"timecache/internal/core"
	"timecache/internal/replacement"
)

// LineSize is the cache line size in bytes (fixed at 64, as in the paper).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Kind distinguishes access types.
type Kind int

// Access kinds.
const (
	Fetch   Kind = iota // instruction fetch (L1I)
	Load                // data read (L1D)
	Store               // data write (L1D)
	FlushOp             // clflush (only appears on Request trails, never Access)
)

func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Load:
		return "load"
	case Store:
		return "store"
	case FlushOp:
		return "flush"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// state is the MESI-lite coherence state of an L1 line.
type state uint8

const (
	invalid state = iota
	shared
	modified
)

// line is one cache line's metadata apart from its tag, which lives in the
// cache's packed tag array (see Cache.tags).
type line struct {
	st    state
	dirty bool // used at the LLC (L1 dirtiness is st == modified)
	// llcHint caches the LLC slot index backing this L1 line, set by the
	// hierarchy at fill time when the sharer directory is on. It is only a
	// hint — consumers verify the slot's tag before trusting it.
	llcHint int32
}

// tagValid is the validity bit of a packed tag. Line addresses are
// 64-byte aligned, so bit 0 is free: a valid line's packed tag is
// lineAddr|tagValid and an invalid line's is 0, and one compare against
// lineAddr|tagValid tests residency and tag together.
const tagValid = 1

// Stats counts events at one cache.
type Stats struct {
	Accesses    uint64 // lookups made at this cache
	Hits        uint64 // serviced as hits (s-bit visible)
	Misses      uint64 // tag misses
	FirstAccess uint64 // resident lines delayed because the s-bit was clear
	Evictions   uint64 // valid lines displaced by fills
	Writebacks  uint64 // dirty evictions
	Invalidates uint64 // lines removed by coherence or clflush
}

// Delta returns the counter advance since an earlier snapshot, the quantity
// interval samplers and warm-point measurements work with.
func (s Stats) Delta(before Stats) Stats {
	return Stats{
		Accesses:    s.Accesses - before.Accesses,
		Hits:        s.Hits - before.Hits,
		Misses:      s.Misses - before.Misses,
		FirstAccess: s.FirstAccess - before.FirstAccess,
		Evictions:   s.Evictions - before.Evictions,
		Writebacks:  s.Writebacks - before.Writebacks,
		Invalidates: s.Invalidates - before.Invalidates,
	}
}

// Add returns the element-wise sum of two counter sets (aggregating the
// per-core private caches into one logical level).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses:    s.Accesses + o.Accesses,
		Hits:        s.Hits + o.Hits,
		Misses:      s.Misses + o.Misses,
		FirstAccess: s.FirstAccess + o.FirstAccess,
		Evictions:   s.Evictions + o.Evictions,
		Writebacks:  s.Writebacks + o.Writebacks,
		Invalidates: s.Invalidates + o.Invalidates,
	}
}

// Config describes one cache's geometry and timing.
type Config struct {
	Name       string
	Size       int    // total bytes
	Ways       int    // associativity
	Latency    uint64 // hit latency in cycles
	Policy     replacement.Kind
	PolicySeed uint64

	// Sec enables TimeCache state with the given number of hardware
	// contexts sharing this cache; nil disables it.
	Sec         *core.Config
	SecContexts int

	// Partition, when non-nil, confines each context's lookups and fills to
	// a contiguous way range (DAWG-lite way partitioning baseline).
	Partition func(ctx int) (firstWay, ways int)

	// Index, when non-nil, overrides set selection (used by the CEASER-lite
	// randomized-index baseline). It receives the line-aligned address.
	Index func(lineAddr uint64) uint64
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg  Config
	sets int
	ways int
	// setMask and wayShift replace the divisions of set selection and of
	// splitting a line index into (set, way) when the geometry is a power
	// of two (every configuration the experiments use); setMask == 0 (also
	// set under a custom Index) or wayShift < 0 selects the general path.
	setMask  uint64
	wayShift int
	lines    []line
	// tags holds every line's packed tag (lineAddr|tagValid, or 0 when the
	// line is invalid), parallel to lines. The tag scans of lookup, Probe
	// and victim read only this array, 8 bytes a way, so a whole 16-way
	// set spans two host cache lines.
	tags []uint64
	pol  replacement.Policy
	// lru is pol's concrete type when the policy is true LRU, letting the
	// hit path call Touch directly (inlinable) instead of through the
	// interface.
	lru *replacement.LRUPolicy
	// mru memoizes the most recently hit or filled way per set: the common
	// L1 hit re-references the same line, so lookup checks this way first
	// and the hit costs a single tag compare. The memo is only a hint —
	// validity and tag are always re-checked — so invalidations can leave
	// it stale safely. It occupies the words after the tag array in one
	// allocation, so the packed tags cost no allocation of their own.
	mru []uint64
	sec core.Tracker

	Stats Stats
}

// New builds a cache from cfg. Size must be a multiple of Ways*LineSize.
func New(cfg Config) *Cache {
	if cfg.Size <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d ways=%d", cfg.Name, cfg.Size, cfg.Ways))
	}
	if cfg.Size%(cfg.Ways*LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*linesize", cfg.Name, cfg.Size))
	}
	sets := cfg.Size / (cfg.Ways * LineSize)
	pol, err := replacement.New(cfg.Policy, sets, cfg.Ways, cfg.PolicySeed)
	if err != nil {
		panic(err)
	}
	n := sets * cfg.Ways
	words := make([]uint64, n+sets)
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		ways:  cfg.Ways,
		lines: make([]line, n),
		tags:  words[:n:n],
		pol:   pol,
		mru:   words[n:],
	}
	if l, ok := pol.(*replacement.LRUPolicy); ok {
		c.lru = l
	}
	if cfg.Index == nil && sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	c.wayShift = -1
	if cfg.Ways&(cfg.Ways-1) == 0 {
		c.wayShift = bits.TrailingZeros(uint(cfg.Ways))
	}
	if cfg.Sec != nil {
		if cfg.SecContexts <= 0 {
			panic(fmt.Sprintf("cache %s: Sec enabled but SecContexts=%d", cfg.Name, cfg.SecContexts))
		}
		c.sec = core.NewTracker(*cfg.Sec, sets*cfg.Ways, cfg.SecContexts)
	}
	return c
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Lines returns the total line count.
func (c *Cache) Lines() int { return len(c.lines) }

// Sec returns the TimeCache security state, or nil if disabled.
func (c *Cache) Sec() core.Tracker { return c.sec }

func (c *Cache) setOf(lineAddr uint64) int {
	if c.setMask != 0 {
		return int((lineAddr >> LineShift) & c.setMask)
	}
	return c.setOfSlow(lineAddr)
}

// setOfSlow is setOf for a custom index function or a non-power-of-two
// set count.
func (c *Cache) setOfSlow(lineAddr uint64) int {
	if c.cfg.Index != nil {
		return int(c.cfg.Index(lineAddr) % uint64(c.sets))
	}
	return int((lineAddr >> LineShift) % uint64(c.sets))
}

// split returns the set and way of line index idx.
func (c *Cache) split(idx int) (set, way int) {
	if c.wayShift >= 0 {
		return idx >> c.wayShift, idx & (c.ways - 1)
	}
	return idx / c.ways, idx % c.ways
}

func (c *Cache) wayRange(ctx int) (int, int) {
	if c.cfg.Partition == nil {
		return 0, c.ways
	}
	return c.partitionRange(ctx)
}

// partitionRange is wayRange's partitioned case, kept out of line so the
// whole-set case inlines into lookup and victim.
func (c *Cache) partitionRange(ctx int) (int, int) {
	first, n := c.cfg.Partition(ctx)
	if first < 0 || n <= 0 || first+n > c.ways {
		panic(fmt.Sprintf("cache %s: partition [%d,%d) out of %d ways", c.cfg.Name, first, first+n, c.ways))
	}
	return first, first + n
}

// tagAt returns the line address held at idx; meaningful only for a valid
// line.
func (c *Cache) tagAt(idx int) uint64 { return c.tags[idx] &^ tagValid }

// lookup returns the line index holding lineAddr for ctx, or -1. The MRU
// fast path makes the common repeated hit a single tag compare; the way
// scan below is only reached on a set change or a miss.
func (c *Cache) lookup(lineAddr uint64, ctx int) int {
	set := c.setOf(lineAddr)
	base := set * c.ways
	want := lineAddr | tagValid
	if w := int(c.mru[set]); c.tags[base+w] == want {
		if c.cfg.Partition == nil {
			return base + w
		}
		if lo, hi := c.wayRange(ctx); w >= lo && w < hi {
			return base + w
		}
	}
	lo, hi := c.wayRange(ctx)
	tags := c.tags[base+lo : base+hi]
	for i, t := range tags {
		if t == want {
			c.mru[set] = uint64(lo + i)
			return base + lo + i
		}
	}
	return -1
}

// Probe reports whether lineAddr (line-aligned) is resident in any
// context's partition, returning its line index or -1, without touching
// replacement state or stats. Used by snooping, the sharer directory, and
// tests.
func (c *Cache) Probe(lineAddr uint64) int {
	set := c.setOf(lineAddr)
	base := set * c.ways
	want := lineAddr | tagValid
	if w := int(c.mru[set]); c.tags[base+w] == want {
		return base + w
	}
	tags := c.tags[base : base+c.ways]
	for w, t := range tags {
		if t == want {
			return base + w
		}
	}
	return -1
}

// visible reports whether a resident line may be served to ctx as a hit.
func (c *Cache) visible(idx, ctx int) bool {
	if c.sec == nil {
		return true
	}
	return c.sec.Visible(idx, ctx)
}

// touch updates replacement state for a line index, calling the concrete
// LRU policy directly when possible (devirtualized: the default policy's
// Touch then inlines into the hit path).
func (c *Cache) touch(idx int) {
	set, way := c.split(idx)
	if c.lru != nil {
		c.lru.Touch(set, way)
		return
	}
	c.pol.Touch(set, way)
}

// victim picks a line index to fill for ctx in lineAddr's set, preferring an
// invalid way. The caller must handle eviction of the returned line first.
func (c *Cache) victim(lineAddr uint64, ctx int) int {
	set := c.setOf(lineAddr)
	lo, hi := c.wayRange(ctx)
	base := set * c.ways
	for w := lo; w < hi; w++ {
		if c.tags[base+w] == 0 {
			return base + w
		}
	}
	if c.cfg.Partition != nil {
		// Pick the partition's LRU way by probing the policy within range.
		// Replacement policies are whole-set; for partitioned mode we keep a
		// simple clock over the partition: evict the way the policy names if
		// it falls inside, else the first way of the partition.
		v := c.pol.Victim(set)
		if v >= lo && v < hi {
			return base + v
		}
		return base + lo
	}
	return base + c.pol.Victim(set)
}

// invalidate removes a line by index, clearing its s-bits. Returns whether
// the line was dirty.
func (c *Cache) invalidate(idx int) bool {
	l := &c.lines[idx]
	dirty := l.dirty || l.st == modified
	l.st = invalid
	l.dirty = false
	c.tags[idx] = 0
	c.Stats.Invalidates++
	if c.sec != nil {
		c.sec.OnEvict(idx)
	}
	return dirty
}

// fill installs lineAddr at idx for ctx at time now with the given state.
func (c *Cache) fill(idx int, lineAddr uint64, st state, ctx int, now clock.Cycles) {
	l := &c.lines[idx]
	if l.st != invalid {
		c.Stats.Evictions++
		if l.dirty || l.st == modified {
			c.Stats.Writebacks++
		}
		if c.sec != nil {
			c.sec.OnEvict(idx)
		}
	}
	c.tags[idx] = lineAddr | tagValid
	l.st = st
	l.dirty = false
	set, way := c.split(idx)
	c.mru[set] = uint64(way)
	c.touch(idx)
	if c.sec != nil {
		c.sec.OnFill(idx, ctx, now)
	}
}

// Reset returns the cache to its freshly constructed cold state — all lines
// invalid, replacement and MRU state cleared, stats and TimeCache metadata
// zeroed — without reallocating any backing array. A zeroed line is exactly
// a fresh one (invalid state and packed tag, llcHint 0 is "no hint" because
// consumers verify tags before trusting it).
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.tags)
	clear(c.mru)
	c.pol.Reset()
	if c.sec != nil {
		c.sec.Reset()
	}
	c.Stats = Stats{}
}

// FlushAll invalidates every line (the flush-on-context-switch baseline).
func (c *Cache) FlushAll() {
	for i, t := range c.tags {
		if t != 0 {
			c.invalidate(i)
		}
	}
}
