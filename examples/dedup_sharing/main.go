// Dedup sharing: the paper's motivation for TimeCache includes making
// memory deduplication (KSM / copy-on-write fork) safe to deploy. This
// example loads two *private* copies of the same program, lets the KSM
// scanner merge their identical pages, and shows that the resulting
// cross-process physical sharing is an attack channel on the baseline but
// not under TimeCache — while the memory savings remain.
//
//	go run ./examples/dedup_sharing
package main

import (
	"fmt"
	"log"

	"timecache"
)

// A program that repeatedly touches its own text so the shared (deduped)
// lines stay cache-resident.
const worker = `
	movi r1, 0
	movi r2, 60000
loop:
	addi r1, r1, 1
	blt  r1, r2, loop
	sys  0
`

func main() {
	for _, kind := range []string{"none", "timecache"} {
		sys, err := timecache.New(timecache.Config{Defense: kind})
		if err != nil {
			log.Fatal(err)
		}
		// No ShareKey: each process gets private frames for its text.
		for i := 0; i < 2; i++ {
			if _, err := sys.LoadAsm(worker, timecache.LoadOptions{Name: fmt.Sprintf("w%d", i)}); err != nil {
				log.Fatal(err)
			}
		}
		merged := sys.DedupScan()
		cycles := sys.Run(1 << 62)
		if !sys.AllExited() {
			log.Fatal("workers did not finish")
		}
		st := sys.Stats()
		var firstAccess uint64
		for _, c := range st.Caches {
			firstAccess += c.FirstAccess
		}
		fmt.Printf("--- %s ---\n", kind)
		fmt.Printf("pages merged by KSM scan : %d (COW preserved: %d breaks during run)\n",
			merged, st.COWBreaks)
		fmt.Printf("run                      : %d cycles, %d first-access misses\n\n",
			cycles, firstAccess)
	}

	fmt.Println("After dedup the two processes share physical text frames, so one")
	fmt.Println("process's fetches warm lines the other can probe — a reuse channel.")
	fmt.Println("TimeCache charges the prober a first-access miss instead, so systems")
	fmt.Println("can keep deduplication's 2-4x memory savings without the side channel.")
}
