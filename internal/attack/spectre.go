package attack

import (
	"fmt"

	"timecache/internal/cache"
	"timecache/internal/sim"
)

// SpectreResult reports the Spectre-style covert-channel experiment: how
// much of the victim's secret the attacker reconstructed from the cache
// footprint of transient (secret-indexed) accesses.
type SpectreResult struct {
	Secret    []byte
	Recovered []byte
	// BytesCorrect counts exactly-recovered secret bytes.
	BytesCorrect int
	// Hits is the attacker's total probe hits.
	Hits int
}

// spectreVictim models the transmit half of a Spectre gadget: for each
// secret byte it performs the transient load `probeArray[secret[i] * 64]`
// that speculative execution would leave in the cache. The architectural
// results of speculation are squashed, but the cache fill is not — which
// is precisely the reuse side channel TimeCache eliminates. One byte is
// transmitted per interleaved round.
type spectreVictim struct {
	probeBase uint64
	secret    []byte
	i         int
}

func (v *spectreVictim) Step(env sim.Env) bool {
	if v.i >= len(v.secret) {
		env.Syscall(sim.SysExit, 0)
		return false
	}
	// The "speculative" access: secret-indexed line touch. Its value is
	// never used architecturally; only the cache state changes.
	env.Load(v.probeBase + uint64(v.secret[v.i])*cache.LineSize)
	env.Instret(6)
	v.i++
	env.Syscall(sim.SysYield, 0)
	return true
}

// spectreAttacker is the receive half: flush+reload over all 256 probe
// lines, one round per secret byte. The hit index is the byte value.
type spectreAttacker struct {
	probeBase uint64
	rounds    int
	threshold uint64

	round     int
	phase     int
	flushIdx  int
	probeIdx  int
	hitIdx    int
	recovered []byte
	hits      int
}

func (a *spectreAttacker) Step(env sim.Env) bool {
	switch a.phase {
	case 0: // flush the entire probe array, then let the victim transmit
		if a.round >= a.rounds {
			env.Syscall(sim.SysExit, 0)
			return false
		}
		for i := 0; i < 256; i++ {
			env.Flush(a.probeBase + uint64(i)*cache.LineSize)
		}
		env.Instret(256)
		a.hitIdx = -1
		a.probeIdx = 0
		a.phase = 1
		env.Syscall(sim.SysYield, 0)
	case 1: // reload: time every line; the hit reveals the byte
		for ; a.probeIdx < 256; a.probeIdx++ {
			t0 := env.Now()
			env.Load(a.probeBase + uint64(a.probeIdx)*cache.LineSize)
			if env.Now()-t0 <= a.threshold {
				a.hitIdx = a.probeIdx
				a.hits++
			}
			env.Instret(4)
		}
		if a.hitIdx >= 0 {
			a.recovered = append(a.recovered, byte(a.hitIdx))
		} else {
			a.recovered = append(a.recovered, 0)
		}
		a.round++
		a.phase = 0
	}
	return true
}

// RunSpectre demonstrates that breaking the reuse channel also breaks
// Spectre-style transmission (paper §VIII-B2, §IX): the attacker recovers
// the victim's secret bytes from a shared probe array on the baseline and
// learns nothing under TimeCache.
func RunSpectre(mode cache.SecMode, secret []byte) (SpectreResult, error) {
	if len(secret) == 0 {
		return SpectreResult{}, fmt.Errorf("attack: empty secret")
	}
	m := NewMachine(mode, 1)
	size := uint64(256 * cache.LineSize)
	asV, err := m.MapSharedAt("spectre_probe", size)
	if err != nil {
		return SpectreResult{}, err
	}
	asA, err := m.MapSharedAt("spectre_probe", size)
	if err != nil {
		return SpectreResult{}, err
	}
	vic := &spectreVictim{probeBase: sharedBase, secret: secret}
	att := &spectreAttacker{probeBase: sharedBase, rounds: len(secret), threshold: m.HitThreshold()}
	// The attacker runs first so its flush precedes the victim's transmit.
	if _, err := m.K.Spawn("spectre-attacker", att, asA, 0); err != nil {
		return SpectreResult{}, err
	}
	if _, err := m.K.Spawn("spectre-victim", vic, asV, 0); err != nil {
		return SpectreResult{}, err
	}
	m.K.Run(4_000_000_000)
	if !m.K.AllExited() {
		return SpectreResult{}, fmt.Errorf("attack: spectre experiment did not finish")
	}
	res := SpectreResult{Secret: secret, Recovered: att.recovered, Hits: att.hits}
	for i := range secret {
		if i < len(att.recovered) && att.recovered[i] == secret[i] {
			res.BytesCorrect++
		}
	}
	return res, nil
}
