package attack

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/replacement"
	"timecache/internal/sim"
)

// SecretResult reports how well an attack recovered a victim's secret bit
// sequence.
type SecretResult struct {
	Secret    []bool
	Recovered []bool
	// Accuracy is the fraction of bits recovered correctly (0.5 ≈ chance).
	Accuracy float64
}

func scoreSecret(secret, recovered []bool) SecretResult {
	n := len(secret)
	if len(recovered) < n {
		n = len(recovered)
	}
	same := 0
	for i := 0; i < n; i++ {
		if secret[i] == recovered[i] {
			same++
		}
	}
	acc := 0.0
	if len(secret) > 0 {
		acc = float64(same) / float64(len(secret))
	}
	return SecretResult{Secret: secret, Recovered: recovered, Accuracy: acc}
}

// secretBits derives a deterministic bit sequence from a seed.
func secretBits(n int, seed uint64) []bool {
	out := make([]bool, n)
	s := seed*0x9E3779B97F4A7C15 + 1
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = s&1 == 1
	}
	return out
}

// bitVictim performs one secret-dependent action per round, then yields.
type bitVictim struct {
	bits   []bool
	action func(env sim.Env, bit bool)
	round  int
}

func (v *bitVictim) Step(env sim.Env) bool {
	if v.round >= len(v.bits) {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	v.action(env, v.bits[v.round])
	env.Instret(4)
	v.round++
	env.Syscall(sim.SysYield, 0)
	return true
}

// ---------------------------------------------------------------------------
// Flush+Flush (§VII-C)

// flushFlushAttacker times clflush itself: a longer flush means the line
// was resident, i.e. the victim touched it since the previous flush.
type flushFlushAttacker struct {
	target    uint64
	rounds    int
	threshold uint64

	round int
	obs   []bool
}

func (a *flushFlushAttacker) Step(env sim.Env) bool {
	if a.round > a.rounds {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	t0 := env.Now()
	env.Flush(a.target)
	lat := env.Now() - t0
	env.Instret(3)
	if a.round > 0 { // round 0 only establishes the flushed state
		a.obs = append(a.obs, lat > a.threshold)
	}
	a.round++
	env.Syscall(sim.SysYield, 0)
	return true
}

// RunFlushFlushConfig mounts the flush+flush attack on a shared line, on a
// machine assembled from cfg. The attack does not rely on reuse hits, so
// TimeCache alone does not stop it; cfg.ConstantTimeFlush (a fixed-latency
// clflush with dummy writeback, as the paper suggests) does.
func RunFlushFlushConfig(cfg machine.Config, nbits int, seed uint64) (SecretResult, error) {
	m := NewMachineConfig(cfg)
	asA, err := m.MapSharedAt("ff", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	asV, err := m.MapSharedAt("ff", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	secret := secretBits(nbits, seed)
	att := &flushFlushAttacker{target: sharedBase, rounds: nbits, threshold: m.FlushThreshold()}
	vic := &bitVictim{bits: secret, action: func(env sim.Env, bit bool) {
		if bit {
			env.Load(sharedBase)
		} else {
			env.Tick(10)
		}
	}}
	// Attacker first: its initial flush precedes the victim's first round.
	if _, err := m.K.Spawn("ff-attacker", att, asA, 0); err != nil {
		return SecretResult{}, err
	}
	if _, err := m.K.Spawn("ff-victim", vic, asV, 0); err != nil {
		return SecretResult{}, err
	}
	m.K.Run(1_000_000_000)
	if !m.K.AllExited() {
		return SecretResult{}, fmt.Errorf("attack: flush+flush did not finish")
	}
	return scoreSecret(secret, att.obs), nil
}

// ---------------------------------------------------------------------------
// Prime+Probe (§IX / Fig. 1) — contention attack, out of TimeCache's threat
// model; defended by index randomization.

type primeProbeAttacker struct {
	lines     []uint64 // attacker's eviction set (ways lines, one LLC set)
	rounds    int
	threshold uint64

	round int
	obs   []bool
}

func (a *primeProbeAttacker) Step(env sim.Env) bool {
	if a.round > a.rounds {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	misses := 0
	for _, l := range a.lines {
		t0 := env.Now()
		env.Load(l) // probe (and re-prime)
		if env.Now()-t0 > a.threshold {
			misses++
		}
		env.Instret(4)
	}
	if a.round > 0 { // round 0 is the initial prime
		a.obs = append(a.obs, misses > 0)
	}
	a.round++
	env.Syscall(sim.SysYield, 0)
	return true
}

// RunPrimeProbeConfig mounts a prime+probe attack on one LLC set, on a
// machine assembled from cfg. There is no shared memory: the victim's
// secret-dependent access to its own line in the monitored set evicts one
// of the attacker's primed lines. TimeCache does not (and per the paper,
// need not) stop this contention channel; CEASER-lite index randomization
// (cfg.RandomizedIndex) does, because the attacker's
// architecturally-constructed eviction set no longer maps to a single set.
func RunPrimeProbeConfig(cfg machine.Config, nbits int, seed uint64) (SecretResult, error) {
	m := NewMachineConfig(cfg)
	llc := m.K.Hierarchy().LLC()

	asA := kernel.NewAddressSpace(m.K.Physical())
	asV := kernel.NewAddressSpace(m.K.Physical())
	// The victim's line: one private page; its architectural LLC set is the
	// set the attacker monitors.
	if err := asV.MapAnon(0x7000_0000, 4096, true); err != nil {
		return SecretResult{}, err
	}
	vicPA, _, err := asV.Translate(0x7000_0000, false)
	if err != nil {
		return SecretResult{}, err
	}
	evict, err := m.BuildEvictionSet(asA, llc, vicPA, llc.Ways(), 0x6000_0000)
	if err != nil {
		return SecretResult{}, err
	}

	secret := secretBits(nbits, seed)
	att := &primeProbeAttacker{lines: evict, rounds: nbits, threshold: m.HitThreshold()}
	vic := &bitVictim{bits: secret, action: func(env sim.Env, bit bool) {
		if bit {
			env.Load(0x7000_0000)
		} else {
			env.Tick(10)
		}
	}}
	if _, err := m.K.Spawn("pp-attacker", att, asA, 0); err != nil {
		return SecretResult{}, err
	}
	if _, err := m.K.Spawn("pp-victim", vic, asV, 0); err != nil {
		return SecretResult{}, err
	}
	m.K.Run(2_000_000_000)
	if !m.K.AllExited() {
		return SecretResult{}, fmt.Errorf("attack: prime+probe did not finish")
	}
	return scoreSecret(secret, att.obs), nil
}

// ---------------------------------------------------------------------------
// LRU attack (§VII-A)

type lruAttacker struct {
	shared    uint64   // the monitored shared line l
	evict     []uint64 // ways private lines conflicting with l in the L1D
	rounds    int
	threshold uint64

	round int
	phase int
	obs   []bool
}

// Step implements the eviction-set LRU probe: access l then (w-1) filler
// lines, let the victim run, access the w-th filler (displacing the LRU
// way), and finally time the first filler — if the victim refreshed l, the
// first filler was the LRU victim and now misses.
func (a *lruAttacker) Step(env sim.Env) bool {
	switch a.phase {
	case 0: // establish known LRU order: l oldest, then evict[0..w-2]
		if a.round >= a.rounds {
			env.Syscall(sim.SysExit, 0)
			return false
		}
		env.Load(a.shared)
		for _, e := range a.evict[:len(a.evict)-1] {
			env.Load(e)
		}
		env.Instret(uint64(len(a.evict)) + 1)
		a.phase = 1
		env.Syscall(sim.SysYield, 0) // victim's turn
	case 1: // displace one way, then time the would-be LRU way
		env.Load(a.evict[len(a.evict)-1])
		t0 := env.Now()
		env.Load(a.evict[0])
		miss := env.Now()-t0 > a.threshold
		a.obs = append(a.obs, miss)
		env.Instret(6)
		// Reset the set for the next round.
		env.Flush(a.shared)
		for _, e := range a.evict {
			env.Flush(e)
		}
		a.round++
		a.phase = 0
	}
	return true
}

// RunLRUConfig mounts the cache-LRU-state attack of §VII-A on the L1D of a
// machine assembled from cfg with the given replacement policy. The
// channel is the replacement state, not a reuse hit, so TimeCache does not
// stop it (the victim's delayed first access still refreshes recency);
// switching the replacement policy to random destroys the channel — the
// paper points to randomizing caches for this class.
func RunLRUConfig(cfg machine.Config, policy replacement.Kind, nbits int, seed uint64) (SecretResult, error) {
	if _, err := replacement.New(policy, 1, 2, 0); err != nil {
		return SecretResult{}, err
	}
	cfg.Policy, cfg.PolicySeed = policy, seed+1
	m := NewMachineConfig(cfg)
	l1d := m.K.Hierarchy().L1D(0)

	asA, err := m.MapSharedAt("lru", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	asV, err := m.MapSharedAt("lru", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	sharedPA, _, err := asA.Translate(sharedBase, false)
	if err != nil {
		return SecretResult{}, err
	}
	evict, err := m.BuildEvictionSet(asA, l1d, sharedPA, l1d.Ways(), 0x6000_0000)
	if err != nil {
		return SecretResult{}, err
	}

	secret := secretBits(nbits, seed)
	// The channel is L1 eviction: an L1 hit (L1Lat) must be separated from
	// an L1 miss served by the LLC, so the threshold sits between the two.
	hcfg := m.K.Hierarchy().Config()
	l1Threshold := hcfg.L1Lat + hcfg.LLCLat/2
	att := &lruAttacker{shared: sharedBase, evict: evict, rounds: nbits, threshold: l1Threshold}
	vic := &bitVictim{bits: secret, action: func(env sim.Env, bit bool) {
		if bit {
			env.Load(sharedBase) // refresh l's recency
		} else {
			env.Tick(10)
		}
	}}
	if _, err := m.K.Spawn("lru-attacker", att, asA, 0); err != nil {
		return SecretResult{}, err
	}
	if _, err := m.K.Spawn("lru-victim", vic, asV, 0); err != nil {
		return SecretResult{}, err
	}
	m.K.Run(2_000_000_000)
	if !m.K.AllExited() {
		return SecretResult{}, fmt.Errorf("attack: LRU attack did not finish")
	}
	return scoreSecret(secret, att.obs), nil
}

// ---------------------------------------------------------------------------
// Coherence invalidate+transfer (§VII-B)

type coherenceAttacker struct {
	target    uint64
	rounds    int
	period    uint64
	threshold uint64

	round int
	phase int
	obs   []bool
}

func (a *coherenceAttacker) Step(env sim.Env) bool {
	switch a.phase {
	case 0: // invalidate: flush the shared line everywhere
		if a.round >= a.rounds {
			env.Syscall(sim.SysExit, 0)
			return false
		}
		env.Flush(a.target)
		env.Instret(2)
		a.phase = 1
		env.Syscall(sim.SysSleep, a.period)
	case 1: // transfer: a timed load distinguishes a remote-L1 forward
		t0 := env.Now()
		env.Load(a.target)
		lat := env.Now() - t0
		env.Instret(4)
		a.obs = append(a.obs, lat <= a.threshold)
		a.round++
		a.phase = 0
	}
	return true
}

// coherenceVictim runs on another hardware context, touching the shared
// line for 1 bits, synchronized to the attacker's period by sleeps. The
// coherence attack uses stores (to dirty the line in its private L1); the
// SMT attack reuses it with loadOnly set.
type coherenceVictim struct {
	target   uint64
	bits     []bool
	period   uint64
	loadOnly bool

	round   int
	started bool
}

func (v *coherenceVictim) Step(env sim.Env) bool {
	if !v.started {
		v.started = true
		env.Syscall(sim.SysSleep, v.period/2) // land mid-window
		return true
	}
	if v.round >= len(v.bits) {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	if v.bits[v.round] {
		if v.loadOnly {
			env.Load(v.target)
		} else {
			env.Store(v.target, uint64(v.round))
		}
	} else {
		env.Tick(10)
	}
	env.Instret(3)
	v.round++
	env.Syscall(sim.SysSleep, v.period)
	return true
}

// RunCoherenceConfig mounts invalidate+transfer across two cores of a
// machine assembled from cfg (Cores is forced to 2): the attacker flushes a
// shared line and detects, by load latency, whether the victim's core
// holds a dirty copy (a remote forward is faster than DRAM). With
// TimeCache the attacker's load is a first access that waits for the DRAM
// response either way, so the channel disappears (paper §VII-B).
func RunCoherenceConfig(cfg machine.Config, nbits int, seed uint64) (SecretResult, error) {
	cfg.Cores = 2
	m := NewMachineConfig(cfg)
	asA, err := m.MapSharedAt("coh", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	asV, err := m.MapSharedAt("coh", cache.LineSize)
	if err != nil {
		return SecretResult{}, err
	}
	secret := secretBits(nbits, seed)
	hcfg := m.K.Hierarchy().Config()
	// Remote forward (L1+LLC+remote) is faster than a memory access
	// (LLC+DRAM); split the difference.
	threshold := hcfg.L1Lat + hcfg.LLCLat + hcfg.RemoteL1Lat + (hcfg.DRAMLat-hcfg.RemoteL1Lat)/2
	const period = 50_000
	att := &coherenceAttacker{target: sharedBase, rounds: nbits, period: period, threshold: threshold}
	vic := &coherenceVictim{target: sharedBase, bits: secret, period: period}
	if _, err := m.K.Spawn("coh-attacker", att, asA, 0); err != nil {
		return SecretResult{}, err
	}
	if _, err := m.K.Spawn("coh-victim", vic, asV, 1); err != nil {
		return SecretResult{}, err
	}
	m.K.Run(uint64(nbits+4) * period * 4)
	if !m.K.AllExited() {
		return SecretResult{}, fmt.Errorf("attack: coherence attack did not finish")
	}
	return scoreSecret(secret, att.obs), nil
}

// ---------------------------------------------------------------------------
// Evict+Time (§VII-D)

// EvictTimeResult reports the victim execution times with and without the
// attacker flushing the shared line the victim depends on.
type EvictTimeResult struct {
	VictimCyclesFlushed     uint64
	VictimCyclesUndisturbed uint64
}

// Leaks reports whether the attacker-visible difference exists (the victim
// runs measurably slower when its line keeps getting flushed). TimeCache
// does not remove this channel — the paper notes it stays noisy and
// impractical — so both configurations are expected to leak.
func (r EvictTimeResult) Leaks() bool {
	return r.VictimCyclesFlushed > r.VictimCyclesUndisturbed+r.VictimCyclesUndisturbed/100
}

type evictTimeVictim struct {
	target uint64
	iters  int
	i      int
}

func (v *evictTimeVictim) Step(env sim.Env) bool {
	if v.i >= v.iters {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	env.Load(v.target)
	env.Instret(2)
	v.i++
	if v.i%8 == 0 {
		env.Syscall(sim.SysYield, 0)
	}
	return true
}

type evictTimeAttacker struct {
	target uint64
	flush  bool
	rounds int
	round  int
}

func (a *evictTimeAttacker) Step(env sim.Env) bool {
	if a.round >= a.rounds {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	a.round++
	if a.flush {
		env.Flush(a.target)
	} else {
		env.Tick(40)
	}
	env.Instret(2)
	env.Syscall(sim.SysYield, 0)
	return true
}

// RunEvictTime measures the victim's execution time while an interleaved
// attacker either flushes the victim's shared line every slice or idles,
// each on a fresh machine assembled from cfg.
func RunEvictTime(cfg machine.Config, iters int) (EvictTimeResult, error) {
	var res EvictTimeResult
	for _, flush := range []bool{true, false} {
		m := NewMachineConfig(cfg)
		asV, err := m.MapSharedAt("et", cache.LineSize)
		if err != nil {
			return res, err
		}
		asA, err := m.MapSharedAt("et", cache.LineSize)
		if err != nil {
			return res, err
		}
		vic := &evictTimeVictim{target: sharedBase, iters: iters}
		att := &evictTimeAttacker{target: sharedBase, flush: flush, rounds: iters}
		pv, err := m.K.Spawn("et-victim", vic, asV, 0)
		if err != nil {
			return res, err
		}
		if _, err := m.K.Spawn("et-attacker", att, asA, 0); err != nil {
			return res, err
		}
		m.K.Run(2_000_000_000)
		if pv.State != kernel.Exited {
			return res, fmt.Errorf("attack: evict+time victim did not finish")
		}
		if flush {
			res.VictimCyclesFlushed = pv.Stats.FinishedAt
		} else {
			res.VictimCyclesUndisturbed = pv.Stats.FinishedAt
		}
	}
	return res, nil
}
