// Quickstart: build a TimeCache machine, run two processes that share a
// binary, and watch the defense's first-access misses appear.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"timecache"
)

// Two copies of this program share their text segment (same ShareKey), so
// each process's instruction fetches of lines the *other* process cached
// are delayed first accesses under TimeCache.
const program = `
	movi r1, 0
	movi r2, 100000
loop:
	addi r1, r1, 1
	blt  r1, r2, loop
	mov  r1, r1
	sys  0            ; exit with the counter value
`

func main() {
	for _, kind := range []string{"none", "timecache"} {
		sys, err := timecache.New(timecache.Config{Defense: kind})
		if err != nil {
			log.Fatal(err)
		}
		var procs []*timecache.Process
		for i := 0; i < 2; i++ {
			p, err := sys.LoadAsm(program, timecache.LoadOptions{ShareKey: "counter"})
			if err != nil {
				log.Fatal(err)
			}
			procs = append(procs, p)
		}
		cycles := sys.Run(1 << 62)
		for i, p := range procs {
			if !p.Exited() || p.Err() != nil {
				log.Fatalf("process %d did not finish cleanly: %v", i, p.Err())
			}
		}
		st := sys.Stats()
		var firstAccess uint64
		for _, c := range st.Caches {
			firstAccess += c.FirstAccess
		}
		fmt.Printf("%-9s: %10d cycles, %4d context switches, %6d first-access misses\n",
			kind, cycles, st.ContextSwitches, firstAccess)
	}
	fmt.Println()
	fmt.Println("The baseline never delays reuse of another process's cached lines;")
	fmt.Println("TimeCache charges each process one miss per shared line per residency,")
	fmt.Println("which is exactly what breaks flush+reload style attacks.")
}
