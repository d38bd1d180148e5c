// Package attack implements the paper's attacks and the experiments that
// demonstrate TimeCache's defense: the §VI-A1 microbenchmark, the §VI-A2
// flush+reload RSA key extraction, and the §VII family (evict+reload,
// prime+probe, flush+flush, LRU, coherence invalidate+transfer, evict+time).
//
// Attackers are native sim.Procs: deterministic state machines that issue
// timed loads and flushes through the simulated hierarchy, exactly like the
// paper's attacker programs issue rdtsc-fenced loads and clflush.
package attack

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/mem"
	"timecache/internal/sim"
)

// Machine bundles a kernel with the knobs attacks need.
type Machine struct {
	K *kernel.Kernel
}

// NewMachine builds a simulated machine with the given hierarchy mode and
// core count, using the paper's default geometry.
func NewMachine(mode cache.SecMode, cores int) *Machine {
	return NewMachineConfig(machine.Config{Mode: mode, Cores: cores})
}

// NewMachineConfig assembles a machine from the given configuration. When
// cfg.PhysFrames is zero it applies the attack frame budget — LLC working
// sets plus eviction sets plus slack — instead of the machine default.
func NewMachineConfig(cfg machine.Config) *Machine {
	if cfg.PhysFrames == 0 {
		cfg.PhysFrames = 4096 + 4*cfg.HierarchyConfig().LLCSize/mem.PageSize
	}
	return &Machine{K: machine.New(cfg).Kernel()}
}

// HitThreshold returns the latency below which a load is classified as a
// cache hit: anything at most an LLC hit (plus the remote-forward margin)
// counts; a DRAM access does not. This mirrors the paper's calibration of
// cached vs uncached access times on the real machine.
func (m *Machine) HitThreshold() uint64 {
	cfg := m.K.Hierarchy().Config()
	return cfg.L1Lat + cfg.LLCLat + cfg.RemoteL1Lat + cfg.L1Lat
}

// FlushThreshold returns the latency above which a clflush is classified as
// having found the line resident (the flush+flush channel).
func (m *Machine) FlushThreshold() uint64 {
	cfg := m.K.Hierarchy().Config()
	return cfg.FlushBase + cfg.FlushPresentExtra/2
}

// Probe is one timed access observation.
type Probe struct {
	Target  uint64
	Latency uint64
	Hit     bool
}

// Prober is a generic reuse attacker: each round it performs a timed load
// of every target, classifies hit/miss against Threshold, then removes the
// targets from the cache (clflush, or eviction-set accesses for
// evict+reload) and yields the CPU to let the victim run.
type Prober struct {
	Targets   []uint64
	Rounds    int
	Threshold uint64

	// EvictSets, when non-nil, replaces clflush with accesses to the i-th
	// target's eviction set (evict+reload).
	EvictSets [][]uint64

	// SkipFirstProbe suppresses classification of round 0 (which observes
	// the cold cache rather than the victim).
	SkipFirstProbe bool

	// Obs[r][t] reports a hit for target t in round r.
	Obs [][]bool
	// Lat[r][t] is the measured latency.
	Lat [][]uint64

	round int
}

// NewProber builds a prober for the given targets and rounds using the
// machine's hit threshold.
func NewProber(m *Machine, targets []uint64, rounds int) *Prober {
	return &Prober{Targets: targets, Rounds: rounds, Threshold: m.HitThreshold()}
}

// Step implements sim.Proc: one full probe round per step, then a yield.
func (p *Prober) Step(env sim.Env) bool {
	if p.round >= p.Rounds {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	hits := make([]bool, len(p.Targets))
	lats := make([]uint64, len(p.Targets))
	for i, tgt := range p.Targets {
		t0 := env.Now()
		env.Load(tgt)
		lat := env.Now() - t0
		lats[i] = lat
		hits[i] = lat <= p.Threshold
		env.Instret(4)
	}
	// Evict the targets for the next round.
	for i, tgt := range p.Targets {
		if p.EvictSets != nil {
			for _, ev := range p.EvictSets[i] {
				env.Load(ev)
				env.Instret(1)
			}
		} else {
			env.Flush(tgt)
			env.Instret(1)
		}
	}
	if !(p.round == 0 && p.SkipFirstProbe) {
		p.Obs = append(p.Obs, hits)
		p.Lat = append(p.Lat, lats)
	}
	p.round++
	env.Syscall(sim.SysYield, 0)
	return true
}

// Hits returns the total number of observed hits across all rounds.
func (p *Prober) Hits() int {
	n := 0
	for _, row := range p.Obs {
		for _, h := range row {
			if h {
				n++
			}
		}
	}
	return n
}

// sharedBase is the virtual address attacks map their shared region at.
const sharedBase = 0x4000_0000

// MapSharedAt maps size bytes of the named shared region at sharedBase in a
// fresh address space and returns the space.
func (m *Machine) MapSharedAt(key string, size uint64) (*kernel.AddressSpace, error) {
	as := kernel.NewAddressSpace(m.K.Physical())
	if err := m.K.MapSharedRegion(as, key, sharedBase, size); err != nil {
		return nil, err
	}
	return as, nil
}

// BuildEvictionSet allocates private pages in as (starting at vaddrBase)
// and returns n virtual addresses whose physical lines map to the same set
// of the given cache as targetPA does architecturally. It mirrors an
// attacker constructing an eviction set; with LLC index randomization the
// architectural set function no longer matches the real one, which is what
// defeats eviction-set attacks there.
func (m *Machine) BuildEvictionSet(as *kernel.AddressSpace, c *cache.Cache, targetPA uint64, n int, vaddrBase uint64) ([]uint64, error) {
	targetSet := (targetPA >> cache.LineShift) % uint64(c.Sets())
	var out []uint64
	va := vaddrBase
	for len(out) < n {
		if err := as.MapAnon(va, mem.PageSize, true); err != nil {
			return nil, fmt.Errorf("attack: eviction set allocation: %w", err)
		}
		for off := uint64(0); off < mem.PageSize; off += cache.LineSize {
			pa, _, err := as.Translate(va+off, false)
			if err != nil {
				return nil, err
			}
			if (pa>>cache.LineShift)%uint64(c.Sets()) == targetSet {
				out = append(out, va+off)
				if len(out) == n {
					break
				}
			}
		}
		va += mem.PageSize
	}
	return out, nil
}
