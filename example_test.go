package timecache_test

import (
	"fmt"

	"timecache"
)

// Build a machine, run a tiny program, and read its result.
func ExampleSystem_LoadAsm() {
	sys, _ := timecache.New(timecache.Config{Defense: "timecache"})
	p, _ := sys.LoadAsm(`
		movi r1, 6
		movi r2, 7
		mul  r1, r1, r2
		sys  0           ; exit(r1)
	`, timecache.LoadOptions{})
	sys.Run(1 << 30)
	fmt.Println(p.ExitCode())
	// Output: 42
}

// The headline security result: the flush+reload RSA key extraction
// succeeds on an undefended cache and observes nothing under TimeCache.
func ExampleRunRSAAttack() {
	base, _ := timecache.RunRSAAttack("none", 32, 7)
	defended, _ := timecache.RunRSAAttack("timecache", 32, 7)
	fmt.Printf("baseline recovered the key: %v\n", base.Accuracy == 1)
	fmt.Printf("timecache probe hits: %d\n", defended.Hits)
	// Output:
	// baseline recovered the key: true
	// timecache probe hits: 0
}

// The §VI-A1 microbenchmark: flush a shared array, let the victim write
// it, time the reloads.
func ExampleRunMicrobenchmark() {
	base, _ := timecache.RunMicrobenchmark("none")
	defended, _ := timecache.RunMicrobenchmark("timecache")
	fmt.Printf("baseline: %d/%d hits, timecache: %d/%d hits\n",
		base.Hits, base.Lines, defended.Hits, defended.Lines)
	// Output: baseline: 256/256 hits, timecache: 0/256 hits
}
