package attack

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/machine"
	"timecache/internal/rsa"
	"timecache/internal/sim"
)

// MicrobenchResult reports the §VI-A1 microbenchmark outcome.
type MicrobenchResult struct {
	Lines int
	// Hits is the number of shared lines the attacker observed as cached
	// after the victim's writes (any hit is a successful attack).
	Hits int
	// MeanLatency is the attacker's mean timed-read latency.
	MeanLatency float64
}

// microAttacker implements the parent process of the paper's
// microbenchmark listing: flush the shared array, sleep, then perform
// timed reads of the entire array.
type microAttacker struct {
	base      uint64
	lines     int
	threshold uint64
	sleep     uint64

	phase  int
	i      int
	hits   int
	sumLat uint64
	reads  int
}

func (a *microAttacker) Step(env sim.Env) bool {
	switch a.phase {
	case 0: // flush shrd_mem
		env.Flush(a.base + uint64(a.i)*cache.LineSize)
		env.Instret(1)
		a.i++
		if a.i == a.lines {
			a.phase, a.i = 1, 0
		}
	case 1: // sleep, letting the victim run
		env.Instret(1)
		env.Syscall(sim.SysSleep, a.sleep)
		a.phase = 2
	case 2: // timed reads of the entire array
		t0 := env.Now()
		env.Load(a.base + uint64(a.i)*cache.LineSize)
		lat := env.Now() - t0
		env.Instret(3)
		a.sumLat += lat
		a.reads++
		if lat <= a.threshold {
			a.hits++
		}
		a.i++
		if a.i == a.lines {
			env.Syscall(sim.SysExit, uint64(a.hits))
			return false
		}
	}
	return true
}

// microVictim writes a value repeatedly to the shared array, then exits.
type microVictim struct {
	base   uint64
	lines  int
	passes int

	pass, i int
}

func (v *microVictim) Step(env sim.Env) bool {
	env.Store(v.base+uint64(v.i)*cache.LineSize, 0xAB)
	env.Instret(2)
	v.i++
	if v.i == v.lines {
		v.i = 0
		v.pass++
		if v.pass == v.passes {
			env.Syscall(sim.SysExit, 0)
			return false
		}
	}
	return true
}

// RunMicrobenchmark executes the §VI-A1 attack: a 256-line shared
// memory-mapped array, an attacker that flushes/sleeps/times, and a victim
// that writes the array during the attacker's sleep. On the baseline every
// line hits; with TimeCache the attacker must observe zero hits.
func RunMicrobenchmark(mode cache.SecMode) (MicrobenchResult, error) {
	const lines = 256
	m := NewMachine(mode, 1)
	size := uint64(lines * cache.LineSize)

	asA, err := m.MapSharedAt("shrd_mem", size)
	if err != nil {
		return MicrobenchResult{}, err
	}
	asV, err := m.MapSharedAt("shrd_mem", size)
	if err != nil {
		return MicrobenchResult{}, err
	}
	att := &microAttacker{base: sharedBase, lines: lines, threshold: m.HitThreshold(), sleep: 4_000_000}
	vic := &microVictim{base: sharedBase, lines: lines, passes: 3}
	if _, err := m.K.Spawn("attacker", att, asA, 0); err != nil {
		return MicrobenchResult{}, err
	}
	if _, err := m.K.Spawn("victim", vic, asV, 0); err != nil {
		return MicrobenchResult{}, err
	}
	m.K.Run(200_000_000)
	if !m.K.AllExited() {
		return MicrobenchResult{}, fmt.Errorf("attack: microbenchmark did not finish")
	}
	res := MicrobenchResult{Lines: lines, Hits: att.hits}
	if att.reads > 0 {
		res.MeanLatency = float64(att.sumLat) / float64(att.reads)
	}
	return res, nil
}

// RSAResult reports the §VI-A2 flush+reload RSA attack outcome.
type RSAResult struct {
	Key       rsa.Key
	Recovered rsa.Key
	// Accuracy is the fraction of key bits recovered correctly.
	Accuracy float64
	// Hits counts all attacker probe hits (the paper's success criterion:
	// any hit on the monitored lines is a successful attack observation).
	Hits int
	// SquareHits/MultiplyHits break hits down by monitored function.
	SquareHits, MultiplyHits int
	// VictimCorrect confirms the victim's exponentiation produced the
	// reference result (the defense must not perturb correctness).
	VictimCorrect bool
	// Latencies are the attacker's raw per-round, per-target probe
	// latencies. Under TimeCache these must be independent of the key:
	// identical sequences for different keys (the non-interference
	// property the security tests assert).
	Latencies [][]uint64
}

// RunRSA mounts the flush+reload attack on the square-and-multiply victim:
// the attacker monitors the Square, Multiply, and Reduce entry lines of the
// shared GnuPG-like library while the victim exponentiates with a secret
// key, recovering one key bit per interleaved round from whether Multiply
// was observed.
func RunRSA(mode cache.SecMode, keyBits int, seed uint64) (RSAResult, error) {
	return runRSAOn(NewMachine(mode, 1), keyBits, seed)
}

// RunRSAConfig mounts the flush+reload RSA attack on a machine assembled
// from cfg (the defense×attack matrix selects the defense through
// cfg.Defense).
func RunRSAConfig(cfg machine.Config, keyBits int, seed uint64) (RSAResult, error) {
	return runRSAOn(NewMachineConfig(cfg), keyBits, seed)
}

// runRSAOn mounts the flush+reload RSA attack on an existing machine.
func runRSAOn(m *Machine, keyBits int, seed uint64) (RSAResult, error) {
	lib := rsa.DefaultLibrary(sharedBase)
	key := rsa.GenerateKey(keyBits, seed)
	const base, modulus = 0x10001, 0xFFFFFFFB // 2^32-5, prime

	asV, err := m.MapSharedAt("gnupg", lib.Size())
	if err != nil {
		return RSAResult{}, err
	}
	asA, err := m.MapSharedAt("gnupg", lib.Size())
	if err != nil {
		return RSAResult{}, err
	}

	vic := rsa.NewVictim(lib, key, base, modulus)
	prober := NewProber(m, []uint64{lib.SquareAddr(), lib.MultiplyAddr(), lib.ReduceAddr()}, keyBits+1)

	// The victim is spawned first so each of its per-bit yields hands the
	// CPU to the attacker for one probe round: round i observes bit i.
	if _, err := m.K.Spawn("gpg", vic, asV, 0); err != nil {
		return RSAResult{}, err
	}
	if _, err := m.K.Spawn("spy", prober, asA, 0); err != nil {
		return RSAResult{}, err
	}
	m.K.Run(2_000_000_000)
	if !m.K.AllExited() {
		return RSAResult{}, fmt.Errorf("attack: RSA attack did not finish")
	}

	res := RSAResult{Key: key, Hits: prober.Hits(), Latencies: prober.Lat}
	res.VictimCorrect = vic.Result == rsa.ModExp(base, key, modulus)
	recovered := make(rsa.Key, 0, keyBits)
	for _, row := range prober.Obs {
		if len(recovered) == keyBits {
			break
		}
		if row[0] {
			res.SquareHits++
		}
		if row[1] {
			res.MultiplyHits++
		}
		recovered = append(recovered, row[1])
	}
	res.Recovered = recovered
	res.Accuracy = key.Match(recovered)
	return res, nil
}

// RunEvictReload is the evict+reload variant of the RSA attack: instead of
// clflush the attacker evicts the monitored lines by touching eviction sets
// it constructed for the LLC (and which, being larger than the L1 ways,
// also displace the L1 copies).
func RunEvictReload(mode cache.SecMode, keyBits int, seed uint64) (RSAResult, error) {
	m := NewMachine(mode, 1)
	lib := rsa.DefaultLibrary(sharedBase)
	key := rsa.GenerateKey(keyBits, seed)
	const base, modulus = 0x10001, 0xFFFFFFFB

	asV, err := m.MapSharedAt("gnupg", lib.Size())
	if err != nil {
		return RSAResult{}, err
	}
	asA, err := m.MapSharedAt("gnupg", lib.Size())
	if err != nil {
		return RSAResult{}, err
	}

	targets := []uint64{lib.SquareAddr(), lib.MultiplyAddr(), lib.ReduceAddr()}
	llc := m.K.Hierarchy().LLC()
	evict := make([][]uint64, len(targets))
	evBase := uint64(0x6000_0000)
	for i, t := range targets {
		pa, _, err := asA.Translate(t, false)
		if err != nil {
			return RSAResult{}, err
		}
		// LLC ways + 1 conflicting lines guarantee displacement under LRU.
		ev, err := m.BuildEvictionSet(asA, llc, pa, llc.Ways()+1, evBase)
		if err != nil {
			return RSAResult{}, err
		}
		evict[i] = ev
		evBase += 0x0400_0000
	}

	vic := rsa.NewVictim(lib, key, base, modulus)
	prober := NewProber(m, targets, keyBits+1)
	prober.EvictSets = evict

	if _, err := m.K.Spawn("gpg", vic, asV, 0); err != nil {
		return RSAResult{}, err
	}
	if _, err := m.K.Spawn("spy", prober, asA, 0); err != nil {
		return RSAResult{}, err
	}
	m.K.Run(4_000_000_000)
	if !m.K.AllExited() {
		return RSAResult{}, fmt.Errorf("attack: evict+reload did not finish")
	}

	res := RSAResult{Key: key, Hits: prober.Hits(), Latencies: prober.Lat}
	res.VictimCorrect = vic.Result == rsa.ModExp(base, key, modulus)
	recovered := make(rsa.Key, 0, keyBits)
	for _, row := range prober.Obs {
		if len(recovered) == keyBits {
			break
		}
		if row[0] {
			res.SquareHits++
		}
		if row[1] {
			res.MultiplyHits++
		}
		recovered = append(recovered, row[1])
	}
	res.Recovered = recovered
	res.Accuracy = key.Match(recovered)
	return res, nil
}
