// Command attack-demo mounts the paper's attacks against the baseline and
// TimeCache configurations and reports what leaks.
//
// Usage:
//
//	attack-demo                 # run every attack
//	attack-demo -attack rsa     # just the flush+reload RSA extraction
//	attack-demo -attack rsa -bits 128 -seed 7
//
// Attacks: micro, rsa, evictreload, flushflush, primeprobe, lru,
// coherence, evicttime.
package main

import (
	"flag"
	"fmt"
	"os"

	"timecache"
)

func main() {
	var (
		which = flag.String("attack", "all", "attack to run (micro|rsa|evictreload|flushflush|primeprobe|lru|coherence|evicttime|all)")
		bits  = flag.Int("bits", 64, "secret/key length in bits")
		seed  = flag.Uint64("seed", 42, "secret/key seed")
	)
	flag.Parse()

	attacks := map[string]func(int, uint64) error{
		"micro":       func(int, uint64) error { return micro() },
		"rsa":         rsaAttack,
		"evictreload": evictReload,
		"flushflush":  flushFlush,
		"primeprobe":  primeProbe,
		"lru":         lru,
		"coherence":   coherence,
		"smt":         smt,
		"evicttime":   func(int, uint64) error { return evictTime() },
	}
	order := []string{"micro", "rsa", "evictreload", "flushflush", "primeprobe", "lru", "coherence", "smt", "evicttime"}

	run := func(name string) {
		fmt.Printf("=== %s ===\n", name)
		if err := attacks[name](*bits, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "attack-demo: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *which == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := attacks[*which]; !ok {
		fmt.Fprintf(os.Stderr, "attack-demo: unknown attack %q\n", *which)
		os.Exit(1)
	}
	run(*which)
}

func micro() error {
	for _, kind := range []string{"none", "timecache"} {
		r, err := timecache.RunMicrobenchmark(kind)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: %3d/%d shared lines observed as hits (mean probe %.1f cycles)\n",
			kind, r.Hits, r.Lines, r.MeanLatency)
	}
	fmt.Println("paper §VI-A1: the attacker must see zero hits under the defense")
	return nil
}

func rsaAttack(bits int, seed uint64) error {
	for _, kind := range []string{"none", "timecache"} {
		r, err := timecache.RunRSAAttack(kind, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%, %d probe hits, victim correct: %v\n",
			kind, r.Accuracy*100, r.Hits, r.VictimCorrect)
		fmt.Printf("  key      : %s\n  recovered: %s\n", r.KeyBits, r.RecoveredBits)
	}
	fmt.Println("paper §VI-A2: flush+reload extracts the key on the baseline; TimeCache blinds it")
	return nil
}

func evictReload(bits int, seed uint64) error {
	for _, kind := range []string{"none", "timecache"} {
		r, err := timecache.RunEvictReloadAttack(kind, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%, %d probe hits\n", kind, r.Accuracy*100, r.Hits)
	}
	fmt.Println("evict+reload (no clflush needed) is blocked the same way")
	return nil
}

func flushFlush(bits int, seed uint64) error {
	leaky, err := timecache.RunFlushFlushAttack("timecache", false, bits, seed)
	if err != nil {
		return err
	}
	fixed, err := timecache.RunFlushFlushAttack("timecache", true, bits, seed)
	if err != nil {
		return err
	}
	fmt.Printf("timecache, variable-time clflush: accuracy %.1f%% (leaks)\n", leaky.Accuracy*100)
	fmt.Printf("timecache, constant-time clflush: accuracy %.1f%% (mitigated)\n", fixed.Accuracy*100)
	fmt.Println("paper §VII-C: flush+flush needs the constant-time clflush mitigation")
	return nil
}

func primeProbe(bits int, seed uint64) error {
	tc, err := timecache.RunPrimeProbeAttack("timecache", false, bits, seed)
	if err != nil {
		return err
	}
	rnd, err := timecache.RunPrimeProbeAttack("none", true, bits, seed)
	if err != nil {
		return err
	}
	fmt.Printf("timecache, normal index    : accuracy %.1f%% (contention is out of scope)\n", tc.Accuracy*100)
	fmt.Printf("baseline, randomized index : accuracy %.1f%% (CEASER-lite defeats it)\n", rnd.Accuracy*100)
	fmt.Println("paper §IX: pair TimeCache with a randomizing cache for a holistic defense")
	return nil
}

func lru(bits int, seed uint64) error {
	det, err := timecache.RunLRUAttack("timecache", "lru", bits, seed)
	if err != nil {
		return err
	}
	rnd, err := timecache.RunLRUAttack("timecache", "random", bits, seed)
	if err != nil {
		return err
	}
	fmt.Printf("timecache + true LRU        : accuracy %.1f%% (replacement state leaks)\n", det.Accuracy*100)
	fmt.Printf("timecache + random replace  : accuracy %.1f%% (channel destroyed)\n", rnd.Accuracy*100)
	fmt.Println("paper §VII-A: LRU attacks are the randomizing cache's job")
	return nil
}

func coherence(bits int, seed uint64) error {
	for _, kind := range []string{"none", "timecache"} {
		r, err := timecache.RunCoherenceAttack(kind, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%\n", kind, r.Accuracy*100)
	}
	fmt.Println("paper §VII-B: waiting for the DRAM response hides the remote-L1 forward")
	return nil
}

func smt(bits int, seed uint64) error {
	for _, kind := range []string{"none", "timecache"} {
		r, err := timecache.RunSMTAttack(kind, bits, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: accuracy %.1f%%\n", kind, r.Accuracy*100)
	}
	fmt.Println("paper §III: hyperthread attackers sharing the L1 are inside the threat model")
	return nil
}

func evictTime() error {
	for _, kind := range []string{"none", "timecache"} {
		r, err := timecache.RunEvictTimeAttack(kind, 2000)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s: victim %d cycles flushed vs %d undisturbed (leaks: %v)\n",
			kind, r.VictimCyclesFlushed, r.VictimCyclesUndisturbed, r.Leaks)
	}
	fmt.Println("paper §VII-D: evict+time persists but stays noisy and impractical")
	return nil
}
