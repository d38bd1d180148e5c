// Package machine is the single assembly point for a simulated machine: one
// Config describes the whole shape (defense kind, core count, cache
// geometry, kernel parameters, physical memory size), and New composes the
// clock-bearing kernel, cache hierarchy, and physical memory from it.
//
// Every entry point that needs a machine — the public timecache.System, the
// experiment harness, the attack scenarios, and the CLIs — derives a Config
// and calls New here, so `machine.New` is the only place outside tests where
// cache.NewHierarchy, mem.NewPhysical, and kernel.New are composed.
//
// Machines are reusable: Reset returns one to the exact state New left it
// in, without reallocating the line arrays, s-bit columns, or frame tables.
// A Pool keyed by Config lets sweep workers run many experiment legs on a
// handful of machines instead of rebuilding per run; because a reset machine
// is indistinguishable from a fresh one, pooled results are byte-identical.
package machine

import (
	"sync"
	"sync/atomic"

	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/mem"
	"timecache/internal/replacement"
)

// DefaultPhysFrames is the physical memory size when Config.PhysFrames is
// zero: 32768 frames = 128 MB.
const DefaultPhysFrames = 32768

// Config describes a simulated machine. The zero value assembles the
// paper's evaluation machine: one 2 GHz core, 32 KB 8-way L1I/L1D, 2 MB
// 16-way inclusive LLC, 32-bit timestamps, no defense.
//
// Config is comparable (it has no slice, map, or func fields) so it can key
// a Pool: two configs are the same machine shape iff they are ==.
type Config struct {
	// Mode is the legacy defense spelling (cache.SecOff, SecTimeCache,
	// SecFTM). It is kept only for the benchmark module, which still
	// builds its leg configs with it, and goes with ROADMAP item 1(b). New
	// and Pool.Get fold it into Defense when Defense is empty and then
	// clear it, so it never reaches a pool key or a machine's config.
	Mode cache.SecMode
	// Defense selects the defense by registry kind (internal/defense:
	// "none", "timecache", "ftm", "dawg-lite", "flush-on-switch",
	// "clepsydra", "fase"; empty means "none") and installs the kind's
	// runtime defense instance on the hierarchy when it has one. Because
	// Config is comparable, the field participates in pool and
	// snapshot-shelf keys automatically: machines with different defenses
	// never alias. An unknown kind panics at assembly; validate with
	// defense.StaticOf first.
	Defense string
	// Cores is the number of cores; zero keeps the default (1).
	Cores int
	// ThreadsPerCore is the SMT width; zero keeps the default (1).
	ThreadsPerCore int
	// L1Size and LLCSize are cache sizes in bytes; zero keeps the defaults
	// (32 KB and 2 MB).
	L1Size, LLCSize int
	// TimestampBits is the Tc width; zero keeps the default (32).
	TimestampBits uint
	// GateLevel routes context-switch timestamp comparisons through the
	// gate-level transposed-SRAM comparator model.
	GateLevel bool
	// MaxSharers, when positive, selects the limited-pointer s-bit tracker
	// (§VI-C) with that many slots per line.
	MaxSharers int
	// ConstantTimeFlush makes clflush constant-time (the §VII-C mitigation).
	ConstantTimeFlush bool
	// RandomizedIndex enables CEASER-lite LLC index randomization with the
	// given nonzero key.
	RandomizedIndex uint64
	// CoherenceCheck cross-checks the LLC sharer directory against a
	// brute-force probe on every coherence event (debug mode).
	CoherenceCheck bool
	// NextLinePrefetch enables the next-line prefetcher.
	NextLinePrefetch bool
	// DisableDirectory forces broadcast coherence where the sharer
	// directory would apply (A/B benchmarking).
	DisableDirectory bool
	// Policy overrides the replacement policy; empty keeps the default
	// (true LRU). PolicySeed seeds the random policy.
	Policy     replacement.Kind
	PolicySeed uint64
	// SliceCycles overrides the scheduler time slice; zero keeps the
	// default (200k cycles).
	SliceCycles uint64
	// PhysFrames sizes physical memory; zero keeps DefaultPhysFrames.
	// Capacity only gates out-of-memory — it never changes timing — so
	// callers may round it up freely to share pooled machines.
	PhysFrames int
}

// HierarchyConfig is the canonical Config → cache.HierarchyConfig mapping,
// deduplicating the derivations that used to live separately in timecache.go
// and internal/harness. Zero-valued fields keep the paper defaults from
// cache.DefaultHierarchyConfig; TestHierarchyConfigMapping pins every field.
func (c Config) HierarchyConfig() cache.HierarchyConfig {
	st := c.static()
	h := cache.DefaultHierarchyConfig()
	if c.Cores > 0 {
		h.Cores = c.Cores
	}
	if c.ThreadsPerCore > 0 {
		h.ThreadsPerCore = c.ThreadsPerCore
	}
	h.Mode = st.Mode
	if c.L1Size != 0 {
		h.L1Size = c.L1Size
	}
	if c.LLCSize != 0 {
		h.LLCSize = c.LLCSize
	}
	if c.TimestampBits != 0 {
		h.Sec.TimestampBits = c.TimestampBits
	}
	h.Sec.GateLevel = c.GateLevel
	h.Sec.MaxSharers = c.MaxSharers
	h.ConstantTimeFlush = c.ConstantTimeFlush
	h.Partitioned = st.Partitioned
	h.IndexRand = c.RandomizedIndex
	h.CoherenceCheck = c.CoherenceCheck
	h.NextLinePrefetch = c.NextLinePrefetch
	h.DisableDirectory = c.DisableDirectory
	if c.Policy != "" {
		h.Policy = c.Policy
	}
	h.PolicySeed = c.PolicySeed
	return h
}

// KernelConfig is the canonical Config → kernel.Config mapping.
func (c Config) KernelConfig() kernel.Config {
	k := kernel.DefaultConfig()
	if c.SliceCycles != 0 {
		k.SliceCycles = c.SliceCycles
	}
	k.FlushOnSwitch = c.static().FlushOnSwitch
	return k
}

// canonical is the one spelling of c that New, Pool.Get and every mapping
// use: a legacy Mode is folded into an empty Defense and then cleared, so
// pool keys, a machine's config and its behaviour depend on the registry
// kind alone.
func (c Config) canonical() Config {
	if c.Defense == "" {
		c.Defense = defense.KindOfMode(c.Mode)
	}
	c.Mode = cache.SecOff
	return c
}

// static resolves the structural defense configuration of c's registry
// kind.
func (c Config) static() defense.Static {
	st, err := defense.StaticOf(c.canonical().Defense)
	if err != nil {
		panic(err)
	}
	return st
}

func (c Config) frames() int {
	if c.PhysFrames > 0 {
		return c.PhysFrames
	}
	return DefaultPhysFrames
}

// Machine is an assembled simulated machine. The kernel owns the cores and
// their clocks; the hierarchy and physical memory are reachable both here
// and through the kernel.
type Machine struct {
	cfg  Config
	hier *cache.Hierarchy
	phys *mem.Physical
	k    *kernel.Kernel
}

// New assembles a machine from cfg.
func New(cfg Config) *Machine {
	cfg = cfg.canonical()
	hcfg := cfg.HierarchyConfig()
	hier := cache.NewHierarchy(hcfg)
	// Defense kinds with runtime state (clepsydra, fase) get their instance
	// here, once per machine: Reset resets it in place, and Snapshot/Fork
	// build the destination through New so CopyFrom always finds a
	// same-kind instance to deep-copy into.
	if d := defense.NewRuntime(cfg.Defense, hier); d != nil {
		hier.SetDefense(d)
	}
	phys := mem.NewPhysical(cfg.frames(), hcfg.DRAMLat)
	return &Machine{cfg: cfg, hier: hier, phys: phys, k: kernel.New(cfg.KernelConfig(), hier, phys)}
}

// Kernel returns the machine's kernel (the run entry point).
func (m *Machine) Kernel() *kernel.Kernel { return m.k }

// Hierarchy returns the machine's cache hierarchy.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Reset returns the machine to the cold state New left it in without
// reallocating: processes dropped, caches and s-bits cleared, replacement
// and directory state rewound, frames freed in an order that makes the next
// run's allocations identical to a fresh machine's, clocks zeroed, telemetry
// hooks detached. Running the same workload after Reset produces exactly the
// cycles and counters a fresh machine would (TestResetDeterminism and the
// golden experiment tests enforce this).
func (m *Machine) Reset() { m.k.Reset() }

// Pool reuses machines across experiment runs, keyed by Config. Get checks a
// machine out of the pool (after Reset) when one with the identical config
// was Put back earlier, so a worker running many legs of the same shape pays
// construction once; Put returns a machine for later reuse.
//
// A Pool is safe for concurrent use from any number of goroutines: Get and
// Put hand each machine to exactly one owner at a time, so sweep workers and
// the job service can share one pool (runner.MapWorkersCtx still supports
// per-worker pools where isolation is preferred). A nil *Pool is valid: Get
// builds a fresh machine and Put discards.
type Pool struct {
	mu       sync.Mutex
	machines map[Config][]*Machine
	idleCap  int

	// snaps shelves warm-state snapshots keyed by the caller's key (the
	// harness keys on machine config + workload recipe), with FIFO
	// eviction once snapCap keys are resident.
	snaps     map[any]*Snapshot
	snapOrder []any

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	snapHits   atomic.Uint64
	snapMisses atomic.Uint64
}

// DefaultIdleCap bounds each config's idle list. Sweeps check at most one
// machine per worker in and out per shape, so a small cap holds the working
// set while shifting sweep shapes (an LLC ladder retires one config per
// step) stop accumulating dead machines.
const DefaultIdleCap = 8

// defaultSnapCap bounds the snapshot shelf (distinct keys). Each snapshot
// pins a frozen machine, so the shelf must not grow with sweep length.
const defaultSnapCap = 16

// PoolStats counts how Gets were served: a hit reuses a pooled machine
// (Reset, ~23µs), a miss assembles a fresh one (~141µs). Evictions counts
// idle machines dropped because their config's shelf was at IdleCap.
// SnapshotHits/SnapshotMisses count snapshot-shelf lookups. The job service
// reports the Get delta per job and the totals on /metrics.
type PoolStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Evictions      uint64 `json:"evictions"`
	IdleCap        int    `json:"idle_cap"`
	SnapshotHits   uint64 `json:"snapshot_hits"`
	SnapshotMisses uint64 `json:"snapshot_misses"`
}

// Stats returns the pool's cumulative counters (zero for a nil pool, whose
// Gets always build fresh).
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		Evictions:      p.evictions.Load(),
		IdleCap:        p.idleCap,
		SnapshotHits:   p.snapHits.Load(),
		SnapshotMisses: p.snapMisses.Load(),
	}
}

// NewPool returns an empty pool with the default idle bound.
func NewPool() *Pool {
	return &Pool{
		machines: map[Config][]*Machine{},
		idleCap:  DefaultIdleCap,
		snaps:    map[any]*Snapshot{},
	}
}

// Get returns a machine assembled from cfg: a pooled one (after Reset) when
// available, a fresh one otherwise. The caller owns the machine exclusively
// until it Puts it back; a machine that is never Put is simply dropped.
func (p *Pool) Get(cfg Config) *Machine {
	if p == nil {
		return New(cfg)
	}
	cfg = cfg.canonical()
	p.mu.Lock()
	if list := p.machines[cfg]; len(list) > 0 {
		m := list[len(list)-1]
		list[len(list)-1] = nil
		p.machines[cfg] = list[:len(list)-1]
		p.mu.Unlock()
		p.hits.Add(1)
		m.Reset()
		return m
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return New(cfg)
}

// Put returns a machine to the pool for a later Get with the same Config.
// The machine may be dirty — Get Resets before reuse — but must no longer be
// running. A Put that would push a config's idle list past IdleCap drops the
// machine instead (counted in Stats().Evictions). Put on a nil pool
// discards the machine.
func (p *Pool) Put(m *Machine) {
	if p == nil || m == nil {
		return
	}
	p.mu.Lock()
	if len(p.machines[m.cfg]) >= p.idleCap {
		p.mu.Unlock()
		p.evictions.Add(1)
		return
	}
	p.machines[m.cfg] = append(p.machines[m.cfg], m)
	p.mu.Unlock()
}

// Size returns the number of idle machines the pool currently holds.
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.machines {
		n += len(list)
	}
	return n
}
