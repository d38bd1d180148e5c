package timecache

import (
	"timecache/internal/attack"
	"timecache/internal/replacement"
)

// MicrobenchmarkResult reports the paper's §VI-A1 microbenchmark: an
// attacker flushes a 256-line shared array, sleeps while the victim writes
// it, then performs timed reads. Any hit is a successful observation.
type MicrobenchmarkResult struct {
	Lines       int
	Hits        int
	MeanLatency float64
}

// RunMicrobenchmark executes the §VI-A1 microbenchmark attack under the
// given defense mode.
func RunMicrobenchmark(mode Mode) (MicrobenchmarkResult, error) {
	r, err := attack.RunMicrobenchmark(mode.secMode())
	if err != nil {
		return MicrobenchmarkResult{}, err
	}
	return MicrobenchmarkResult{Lines: r.Lines, Hits: r.Hits, MeanLatency: r.MeanLatency}, nil
}

// RSAAttackResult reports the §VI-A2 flush+reload (or evict+reload) attack
// against the GnuPG-style square-and-multiply victim.
type RSAAttackResult struct {
	// KeyBits is the true key as a bit string; RecoveredBits is what the
	// attacker inferred.
	KeyBits, RecoveredBits string
	// Accuracy is the fraction of bits recovered correctly (1.0 = full key
	// extraction; ~0.5 = no information).
	Accuracy float64
	// Hits is the attacker's total probe hits (zero under TimeCache).
	Hits int
	// VictimCorrect confirms the exponentiation still computed the right
	// result (the defense must not perturb correctness).
	VictimCorrect bool
}

func toRSAResult(r attack.RSAResult) RSAAttackResult {
	return RSAAttackResult{
		KeyBits:       r.Key.String(),
		RecoveredBits: r.Recovered.String(),
		Accuracy:      r.Accuracy,
		Hits:          r.Hits,
		VictimCorrect: r.VictimCorrect,
	}
}

// RunRSAAttack mounts the flush+reload RSA key extraction of §VI-A2.
func RunRSAAttack(mode Mode, keyBits int, seed uint64) (RSAAttackResult, error) {
	r, err := attack.RunRSA(mode.secMode(), keyBits, seed)
	if err != nil {
		return RSAAttackResult{}, err
	}
	return toRSAResult(r), nil
}

// RunEvictReloadAttack mounts the evict+reload variant, which displaces the
// monitored lines with attacker-constructed eviction sets instead of
// clflush.
func RunEvictReloadAttack(mode Mode, keyBits int, seed uint64) (RSAAttackResult, error) {
	r, err := attack.RunEvictReload(mode.secMode(), keyBits, seed)
	if err != nil {
		return RSAAttackResult{}, err
	}
	return toRSAResult(r), nil
}

// SecretAttackResult reports how well a generic attack recovered a victim's
// secret bit sequence. Accuracy near 1.0 means the channel leaks; near 0.5
// means it carries no information.
type SecretAttackResult struct {
	SecretBits, RecoveredBits string
	Accuracy                  float64
}

func toSecretResult(r attack.SecretResult) SecretAttackResult {
	bits := func(bs []bool) string {
		out := make([]byte, len(bs))
		for i, b := range bs {
			if b {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
		}
		return string(out)
	}
	return SecretAttackResult{SecretBits: bits(r.Secret), RecoveredBits: bits(r.Recovered), Accuracy: r.Accuracy}
}

// RunFlushFlushAttack mounts the flush+flush attack (§VII-C). TimeCache
// alone does not stop it; constantTimeFlush (a fixed-latency clflush with
// dummy writeback) does.
func RunFlushFlushAttack(mode Mode, constantTimeFlush bool, bits int, seed uint64) (SecretAttackResult, error) {
	r, err := attack.RunFlushFlush(mode.secMode(), constantTimeFlush, bits, seed)
	if err != nil {
		return SecretAttackResult{}, err
	}
	return toSecretResult(r), nil
}

// RunPrimeProbeAttack mounts the prime+probe contention attack, which needs
// no shared memory and is outside TimeCache's threat model; randomizeIndex
// (CEASER-lite) defeats it.
func RunPrimeProbeAttack(mode Mode, randomizeIndex bool, bits int, seed uint64) (SecretAttackResult, error) {
	r, err := attack.RunPrimeProbe(mode.secMode(), randomizeIndex, bits, seed)
	if err != nil {
		return SecretAttackResult{}, err
	}
	return toSecretResult(r), nil
}

// RunLRUAttack mounts the cache-LRU-state attack (§VII-A) under the given
// replacement policy ("lru", "tree-plru", or "random"); random replacement
// destroys the channel.
func RunLRUAttack(mode Mode, policy string, bits int, seed uint64) (SecretAttackResult, error) {
	r, err := attack.RunLRU(mode.secMode(), replacement.Kind(policy), bits, seed)
	if err != nil {
		return SecretAttackResult{}, err
	}
	return toSecretResult(r), nil
}

// RunSMTAttack mounts flush+reload from a hyperthread: attacker and victim
// run simultaneously on the two hardware threads of one core, sharing the
// L1 caches (paper §III covers this placement; per-hardware-context s-bits
// defend it with no context switches involved).
func RunSMTAttack(mode Mode, bits int, seed uint64) (SecretAttackResult, error) {
	r, err := attack.RunSMT(mode.secMode(), bits, seed)
	if err != nil {
		return SecretAttackResult{}, err
	}
	return toSecretResult(r), nil
}

// RunCoherenceAttack mounts the invalidate+transfer attack (§VII-B) across
// two cores; TimeCache removes the remote-forward timing difference.
func RunCoherenceAttack(mode Mode, bits int, seed uint64) (SecretAttackResult, error) {
	r, err := attack.RunCoherence(mode.secMode(), bits, seed)
	if err != nil {
		return SecretAttackResult{}, err
	}
	return toSecretResult(r), nil
}

// SpectreResult reports the Spectre-style covert-channel experiment: the
// victim performs transient secret-indexed loads into a shared probe
// array; the attacker reconstructs the secret bytes by flush+reload.
type SpectreResult struct {
	Secret, Recovered []byte
	BytesCorrect      int
	Hits              int
}

// RunSpectreChannel demonstrates the paper's §VIII/§IX claim that breaking
// the reuse channel also breaks Spectre's transmission: the attacker
// recovers the secret on the baseline and learns nothing under TimeCache.
func RunSpectreChannel(mode Mode, secret []byte) (SpectreResult, error) {
	r, err := attack.RunSpectre(mode.secMode(), secret)
	if err != nil {
		return SpectreResult{}, err
	}
	return SpectreResult{Secret: r.Secret, Recovered: r.Recovered, BytesCorrect: r.BytesCorrect, Hits: r.Hits}, nil
}

// EvictTimeResult reports the §VII-D evict+time experiment: the victim's
// execution time with and without the attacker flushing its shared line.
type EvictTimeResult struct {
	VictimCyclesFlushed     uint64
	VictimCyclesUndisturbed uint64
	// Leaks reports whether the difference is observable (it remains so
	// even under TimeCache; the paper notes the channel is noisy and out
	// of scope).
	Leaks bool
}

// RunEvictTimeAttack measures the evict+time channel of §VII-D.
func RunEvictTimeAttack(mode Mode, iters int) (EvictTimeResult, error) {
	r, err := attack.RunEvictTime(mode.secMode(), iters)
	if err != nil {
		return EvictTimeResult{}, err
	}
	return EvictTimeResult{
		VictimCyclesFlushed:     r.VictimCyclesFlushed,
		VictimCyclesUndisturbed: r.VictimCyclesUndisturbed,
		Leaks:                   r.Leaks(),
	}, nil
}
