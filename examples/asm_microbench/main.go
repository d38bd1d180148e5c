// The paper's §VI-A1 microbenchmark written in μRISC assembly and executed
// by the simulated CPU — the closest analogue of the original C listing:
//
//	if parent
//	    flush shrd_mem; sleep; read shrd_mem; // cache hit?
//	else
//	    read shrd_mem;
//
// Two instances of one binary are loaded with a common share key, so their
// text and the `.shared` array occupy the same physical frames. The first
// process (PID 1) takes the attacker branch: flush every line, sleep, then
// rdtsc-timed reloads, exiting with its hit count. The second takes the
// victim branch and writes the array while the attacker sleeps.
//
//	go run ./examples/asm_microbench
package main

import (
	"fmt"
	"log"

	"timecache"
)

const microbench = `
.shared
arr: .space 16384          ; 256 cache lines of shared memory

.text
start:
	sys  3                 ; r1 = getpid
	movi r2, 1
	beq  r1, r2, attacker

victim:                    ; PID 2: write the shared array, 3 passes
	movi r3, 0             ; pass counter
vpass:
	movi r4, 0             ; byte offset
vline:
	movi r5, arr
	add  r6, r5, r4
	st   [r6], r2          ; write the line
	addi r4, r4, 64
	movi r7, 16384
	blt  r4, r7, vline
	addi r3, r3, 1
	movi r7, 3
	blt  r3, r7, vpass
	movi r1, 0
	sys  0                 ; exit(0)

attacker:                  ; PID 1: flush, sleep, timed reads
	movi r4, 0
floop:
	movi r5, arr
	add  r6, r5, r4
	clflush [r6]
	addi r4, r4, 64
	movi r7, 16384
	blt  r4, r7, floop

	movi r1, 4000000       ; sleep long enough for the victim to run
	sys  2

	movi r4, 0             ; byte offset
	movi r8, 0             ; hit counter
rloop:
	movi r5, arr
	add  r6, r5, r4
	fence
	rdtsc r9
	ld   r10, [r6]
	rdtsc r11
	fence
	sub  r12, r11, r9
	movi r13, 90           ; hit threshold in cycles (LLC hit < 90 < DRAM)
	bge  r12, r13, miss
	addi r8, r8, 1
miss:
	addi r4, r4, 64
	movi r7, 16384
	blt  r4, r7, rloop
	mov  r1, r8
	sys  0                 ; exit(hit count)
`

func main() {
	for _, kind := range []string{"none", "timecache"} {
		sys, err := timecache.New(timecache.Config{Defense: kind})
		if err != nil {
			log.Fatal(err)
		}
		attacker, err := sys.LoadAsm(microbench, timecache.LoadOptions{ShareKey: "micro", Name: "attacker"})
		if err != nil {
			log.Fatal(err)
		}
		victim, err := sys.LoadAsm(microbench, timecache.LoadOptions{ShareKey: "micro", Name: "victim"})
		if err != nil {
			log.Fatal(err)
		}
		sys.Run(1 << 62)
		if err := attacker.Err(); err != nil {
			log.Fatalf("attacker faulted: %v", err)
		}
		if err := victim.Err(); err != nil {
			log.Fatalf("victim faulted: %v", err)
		}
		fmt.Printf("%-9s: attacker observed %3d/256 shared lines as cache hits\n",
			kind, attacker.ExitCode())
	}
	fmt.Println()
	fmt.Println("The attacker binary itself is unchanged between runs; only the cache")
	fmt.Println("design differs. TimeCache turns every probe into a first-access miss.")
}
