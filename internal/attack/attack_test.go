package attack

import (
	"testing"

	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/replacement"
)

func TestMicrobenchmarkBaselineVsTimeCache(t *testing.T) {
	base, err := RunMicrobenchmark(cache.SecOff)
	if err != nil {
		t.Fatal(err)
	}
	if base.Hits < base.Lines*9/10 {
		t.Fatalf("baseline attack should hit nearly all %d lines, got %d", base.Lines, base.Hits)
	}
	def, err := RunMicrobenchmark(cache.SecTimeCache)
	if err != nil {
		t.Fatal(err)
	}
	if def.Hits != 0 {
		t.Fatalf("TimeCache must yield zero hits, got %d", def.Hits)
	}
	if def.MeanLatency <= base.MeanLatency {
		t.Fatal("defended probe latencies should be higher on average")
	}
}

func TestRSAFlushReload(t *testing.T) {
	const bits = 64
	base, err := RunRSA(cache.SecOff, bits, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if !base.VictimCorrect {
		t.Fatal("victim arithmetic broken on baseline")
	}
	if base.Accuracy < 0.95 {
		t.Fatalf("baseline key recovery accuracy %.2f, want >= 0.95 (key %s, got %s)",
			base.Accuracy, base.Key, base.Recovered)
	}
	def, err := RunRSA(cache.SecTimeCache, bits, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if !def.VictimCorrect {
		t.Fatal("victim arithmetic broken under TimeCache")
	}
	if def.Hits != 0 {
		t.Fatalf("TimeCache attacker observed %d hits, want 0", def.Hits)
	}
	// With zero hits the attacker recovers only the 0 bits by accident.
	ones := 0
	for _, b := range def.Key {
		if b {
			ones++
		}
	}
	wantAtMost := 1.0 - float64(ones)/float64(len(def.Key)) + 0.01
	if def.Accuracy > wantAtMost {
		t.Fatalf("TimeCache recovery accuracy %.2f exceeds guess level %.2f", def.Accuracy, wantAtMost)
	}
}

func TestRSAFTMFailsAgainstSameCoreAttack(t *testing.T) {
	// FTM only tracks per-core presence at the LLC: a same-core attacker
	// and victim share the core's presence bit, so the attack goes through
	// (the paper's argument for TimeCache's stronger threat model).
	res, err := RunRSA(cache.SecFTM, 48, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.95 {
		t.Fatalf("FTM should NOT stop a same-core attack; accuracy %.2f", res.Accuracy)
	}
}

func TestEvictReload(t *testing.T) {
	const bits = 32
	base, err := RunEvictReload(cache.SecOff, bits, 777)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 {
		t.Fatalf("baseline evict+reload accuracy %.2f (key %s, got %s)",
			base.Accuracy, base.Key, base.Recovered)
	}
	def, err := RunEvictReload(cache.SecTimeCache, bits, 777)
	if err != nil {
		t.Fatal(err)
	}
	if def.Hits != 0 {
		t.Fatalf("TimeCache evict+reload observed %d hits, want 0", def.Hits)
	}
}

func TestFlushFlush(t *testing.T) {
	const bits = 48
	// Flush+flush bypasses reuse hits: TimeCache alone does not stop it.
	leaky, err := RunFlushFlush(cache.SecTimeCache, false, bits, 5)
	if err != nil {
		t.Fatal(err)
	}
	if leaky.Accuracy < 0.95 {
		t.Fatalf("flush+flush should leak under TimeCache alone, accuracy %.2f", leaky.Accuracy)
	}
	// The constant-time clflush mitigation closes it.
	fixed, err := RunFlushFlush(cache.SecTimeCache, true, bits, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Accuracy > 0.75 {
		t.Fatalf("constant-time flush should break the channel, accuracy %.2f", fixed.Accuracy)
	}
}

func TestPrimeProbe(t *testing.T) {
	const bits = 32
	// Contention channel: works on the baseline...
	base, err := RunPrimeProbe(cache.SecOff, false, bits, 21)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 {
		t.Fatalf("prime+probe baseline accuracy %.2f", base.Accuracy)
	}
	// ...and TimeCache does not claim to stop it (out of threat model).
	tc, err := RunPrimeProbe(cache.SecTimeCache, false, bits, 21)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Accuracy < 0.9 {
		t.Fatalf("prime+probe should still work under TimeCache, accuracy %.2f", tc.Accuracy)
	}
	// Index randomization (CEASER-lite) breaks eviction-set construction.
	rnd, err := RunPrimeProbe(cache.SecOff, true, bits, 21)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Accuracy > 0.8 {
		t.Fatalf("randomized index should break prime+probe, accuracy %.2f", rnd.Accuracy)
	}
}

func TestLRUAttack(t *testing.T) {
	const bits = 32
	// The LRU state channel survives TimeCache (replacement metadata still
	// updates on delayed first accesses)...
	tc, err := RunLRU(cache.SecTimeCache, replacement.LRU, bits, 31)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Accuracy < 0.9 {
		t.Fatalf("LRU attack should work under TimeCache+LRU, accuracy %.2f", tc.Accuracy)
	}
	// ...and random replacement destroys it.
	rnd, err := RunLRU(cache.SecTimeCache, replacement.Random, bits, 31)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Accuracy > 0.85 {
		t.Fatalf("random replacement should break the LRU channel, accuracy %.2f", rnd.Accuracy)
	}
}

func TestCoherenceInvalidateTransfer(t *testing.T) {
	const bits = 32
	base, err := RunCoherence(cache.SecOff, bits, 17)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 {
		t.Fatalf("invalidate+transfer baseline accuracy %.2f", base.Accuracy)
	}
	def, err := RunCoherence(cache.SecTimeCache, bits, 17)
	if err != nil {
		t.Fatal(err)
	}
	if def.Accuracy > 0.75 {
		t.Fatalf("TimeCache should break invalidate+transfer, accuracy %.2f", def.Accuracy)
	}
}

func TestEvictTimeLeaksEitherWay(t *testing.T) {
	for _, mode := range []cache.SecMode{cache.SecOff, cache.SecTimeCache} {
		res, err := RunEvictTime(mode, 2000)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Leaks() {
			t.Fatalf("%v: evict+time difference missing: flushed=%d undisturbed=%d",
				mode, res.VictimCyclesFlushed, res.VictimCyclesUndisturbed)
		}
	}
}

func TestBuildEvictionSetConflicts(t *testing.T) {
	m := NewMachine(cache.SecOff, 1)
	as, err := m.MapSharedAt("es", cache.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	llc := m.K.Hierarchy().LLC()
	pa, _, _ := as.Translate(sharedBase, false)
	ev, err := m.BuildEvictionSet(as, llc, pa, 8, 0x6000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 8 {
		t.Fatalf("got %d addresses, want 8", len(ev))
	}
	want := (pa >> cache.LineShift) % uint64(llc.Sets())
	for _, va := range ev {
		evpa, _, err := as.Translate(va, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := (evpa >> cache.LineShift) % uint64(llc.Sets()); got != want {
			t.Fatalf("eviction address %#x maps to set %d, want %d", va, got, want)
		}
	}
}

func TestSMTHyperthreadAttack(t *testing.T) {
	const bits = 32
	// Attacker and victim on sibling hardware threads of one core, sharing
	// the L1: the strongest placement in the paper's threat model.
	base, err := RunSMT(cache.SecOff, bits, 9)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 {
		t.Fatalf("SMT flush+reload should succeed on baseline, accuracy %.2f", base.Accuracy)
	}
	def, err := RunSMT(cache.SecTimeCache, bits, 9)
	if err != nil {
		t.Fatal(err)
	}
	if def.Accuracy > 0.75 {
		t.Fatalf("TimeCache must defend the SMT placement, accuracy %.2f", def.Accuracy)
	}
}

// TestNonInterference asserts the defense's core security property in its
// strongest observable form: because the simulator is deterministic, an
// attacker's entire observable latency sequence must be bit-identical for
// two different victim keys — the victim's secret has zero influence on
// anything the attacker can time. On the baseline the sequences must
// differ (that difference IS the leak).
func TestNonInterference(t *testing.T) {
	const bits = 48
	run := func(mode cache.SecMode, seed uint64) [][]uint64 {
		r, err := RunRSA(mode, bits, seed)
		if err != nil {
			t.Fatal(err)
		}
		return r.Latencies
	}
	same := func(a, b [][]uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	// Two different keys (seeds chosen to give different bit patterns).
	tcA, tcB := run(cache.SecTimeCache, 1), run(cache.SecTimeCache, 2)
	if !same(tcA, tcB) {
		t.Fatal("TimeCache: attacker latency sequences differ across keys — information leaks")
	}
	baseA, baseB := run(cache.SecOff, 1), run(cache.SecOff, 2)
	if same(baseA, baseB) {
		t.Fatal("baseline: latency sequences identical across keys — the channel the test relies on is gone")
	}
}

func TestSpectreCovertChannel(t *testing.T) {
	secret := []byte("SPECULATE!")
	base, err := RunSpectre(cache.SecOff, secret)
	if err != nil {
		t.Fatal(err)
	}
	if acc := float64(base.BytesCorrect) / float64(len(secret)); acc < 0.9 {
		t.Fatalf("baseline Spectre transmission should work, recovered %q (%.0f%%)",
			base.Recovered, acc*100)
	}
	def, err := RunSpectre(cache.SecTimeCache, secret)
	if err != nil {
		t.Fatal(err)
	}
	if def.Hits != 0 {
		t.Fatalf("TimeCache must deny the covert channel any hits, got %d", def.Hits)
	}
	if def.BytesCorrect > 1 { // byte 0 could collide with the all-miss sentinel
		t.Fatalf("TimeCache leaked %d secret bytes: %q", def.BytesCorrect, def.Recovered)
	}
}

func TestLimitedPointerTrackerStillDefends(t *testing.T) {
	// The §VI-C limited-pointer area optimization must not weaken the
	// defense: the RSA attack observes zero hits with a 1-slot tracker too
	// (overflow only ever removes visibility).
	base, err := RunRSAConfig(machine.Config{Defense: defense.TimeCache, MaxSharers: 1}, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	if base.Hits != 0 {
		t.Fatalf("limited tracker leaked %d hits", base.Hits)
	}
	if !base.VictimCorrect {
		t.Fatal("victim arithmetic broken")
	}
}

func TestHolisticDefenseComposition(t *testing.T) {
	// Paper §I/§IX: TimeCache composes with randomizing caches — together
	// they stop both the reuse channel (flush+reload) and the contention
	// channel (prime+probe).
	const bits = 24

	// Reuse attack against the composed defense: still zero hits.
	m := NewMachineConfig(machine.Config{Mode: cache.SecTimeCache, RandomizedIndex: 0xFEED})
	rsaRes, err := runRSAOn(m, bits, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rsaRes.Hits != 0 || !rsaRes.VictimCorrect {
		t.Fatalf("composed defense leaked reuse hits: %+v", rsaRes)
	}

	// Contention attack against the composed defense: eviction sets no
	// longer map to one set, so prime+probe collapses to chance.
	pp, err := RunPrimeProbe(cache.SecTimeCache, true, bits, 11)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Accuracy > 0.8 {
		t.Fatalf("composed defense should stop prime+probe, accuracy %.2f", pp.Accuracy)
	}
}

func TestFTMDefendsCrossCoreOnly(t *testing.T) {
	// FTM's intended deployment (paper §VIII-B2): attacker and victim
	// spatially isolated on separate cores, sharing only the LLC. There the
	// per-core presence bits do block reuse — the contrast with
	// TestRSAFTMFailsAgainstSameCoreAttack is exactly the paper's argument
	// for TimeCache's stronger threat model.
	const bits = 24
	base, err := RunSMT(cache.SecOff, bits, 13) // 2 hardware contexts, no switches
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 {
		t.Fatalf("undefended cross-context attack should work, accuracy %.2f", base.Accuracy)
	}
	// Same placement on separate CORES under FTM: cross-core reuse blocked.
	m := NewMachineConfig(machine.Config{Mode: cache.SecFTM, Cores: 2})
	asA, err := m.MapSharedAt("ftmx", cache.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	asV, err := m.MapSharedAt("ftmx", cache.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	secret := secretBits(bits, 13)
	const period = 50_000
	att := &smtProber{target: sharedBase, rounds: bits, period: period, threshold: m.HitThreshold()}
	vic := &coherenceVictim{target: sharedBase, bits: secret, period: period, loadOnly: true}
	if _, err := m.K.Spawn("ftm-attacker", att, asA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.K.Spawn("ftm-victim", vic, asV, 1); err != nil {
		t.Fatal(err)
	}
	m.K.Run(uint64(bits+4) * period * 4)
	if !m.K.AllExited() {
		t.Fatal("FTM cross-core run did not finish")
	}
	res := scoreSecret(secret, att.obs)
	if res.Accuracy > 0.75 {
		t.Fatalf("FTM should block cross-core reuse, accuracy %.2f", res.Accuracy)
	}
}
