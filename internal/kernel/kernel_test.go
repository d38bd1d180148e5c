package kernel

import (
	"context"
	"slices"
	"strings"
	"testing"

	"timecache/internal/asm"
	"timecache/internal/cache"
	"timecache/internal/mem"
	"timecache/internal/sim"
)

func newMachine(t *testing.T, mode cache.SecMode, cores int) *Kernel {
	t.Helper()
	hcfg := cache.DefaultHierarchyConfig()
	hcfg.Cores = cores
	hcfg.Mode = mode
	hier := cache.NewHierarchy(hcfg)
	phys := mem.NewPhysical(16384, hcfg.DRAMLat)
	return New(DefaultConfig(), hier, phys)
}

func TestLoadAndRunProgram(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	prog, err := asm.Assemble(`
	.data
	x: .quad 20
	.text
		movi r1, x
		ld   r2, [r1]
		addi r2, r2, 22
		st   [r1], r2
		ld   r3, [r1]
		mov  r1, r3
		sys  0
	`)
	if err != nil {
		t.Fatal(err)
	}
	p, cpu, err := k.Load(prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10_000_000)
	if p.State != Exited {
		t.Fatalf("process state = %v, want exited", p.State)
	}
	if p.ExitCode != 42 {
		t.Fatalf("exit code = %d, want 42", p.ExitCode)
	}
	if cpu.Fault != nil {
		t.Fatalf("fault: %v", cpu.Fault)
	}
	if p.Stats.Instructions == 0 || p.Stats.CPUCycles == 0 {
		t.Fatal("stats not accounted")
	}
}

func TestTwoProcessesShareTextFrames(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	prog, err := asm.Assemble(`
	.data
	priv: .quad 9
	.shared
	tbl: .quad 1, 2, 3, 4
	.text
		movi r1, tbl
		ld   r2, [r1]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := k.Load(prog, LoadOptions{ShareKey: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := k.Load(prog, LoadOptions{ShareKey: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	f1, ok1 := p1.AS.FrameAt(prog.TextBase)
	f2, ok2 := p2.AS.FrameAt(prog.TextBase)
	if !ok1 || !ok2 || f1 != f2 {
		t.Fatal("text frames must be shared under the same share key")
	}
	s1, _ := p1.AS.FrameAt(prog.SharedBase)
	s2, _ := p2.AS.FrameAt(prog.SharedBase)
	if s1 != s2 {
		t.Fatal("library frames must be shared")
	}
	d1, _ := p1.AS.FrameAt(prog.DataBase)
	d2, _ := p2.AS.FrameAt(prog.DataBase)
	if d1 == d2 {
		t.Fatal("data frames must be private")
	}
	k.Run(10_000_000)
	if !k.AllExited() {
		t.Fatal("programs did not finish")
	}
}

func TestRoundRobinPreemption(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	// Two infinite-ish loops: both must make progress (preemption works).
	src := `
		movi r1, 0
		movi r2, 2000000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, _ := k.Load(prog, LoadOptions{ShareKey: "loop", Name: "A"})
	pb, _, _ := k.Load(prog, LoadOptions{ShareKey: "loop", Name: "B"})
	k.Run(3_000_000)
	if pa.Stats.Instructions == 0 || pb.Stats.Instructions == 0 {
		t.Fatal("both processes must run")
	}
	ratio := float64(pa.Stats.Instructions) / float64(pb.Stats.Instructions)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("grossly unfair scheduling: %d vs %d", pa.Stats.Instructions, pb.Stats.Instructions)
	}
	if k.Stats.ContextSwitches < 4 {
		t.Fatalf("expected several context switches, got %d", k.Stats.ContextSwitches)
	}
}

func TestSleepAndYield(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	sleeper, err := asm.Assemble(`
		rdtsc r2
		movi r1, 100000
		sys  2        ; sleep 100k cycles
		rdtsc r3
		sub  r1, r3, r2
		sys  0        ; exit with elapsed cycles
	`)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ := k.Load(sleeper, LoadOptions{Name: "sleeper"})
	k.Run(10_000_000)
	if p.State != Exited {
		t.Fatalf("sleeper state %v", p.State)
	}
	if p.ExitCode < 100000 {
		t.Fatalf("sleep elapsed %d cycles, want >= 100000", p.ExitCode)
	}
}

func TestTimeCacheBookkeepingCharged(t *testing.T) {
	k := newMachine(t, cache.SecTimeCache, 1)
	prog, err := asm.Assemble(`
		movi r1, 0
		movi r2, 500000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	k.Load(prog, LoadOptions{ShareKey: "w", Name: "A"})
	k.Load(prog, LoadOptions{ShareKey: "w", Name: "B"})
	k.Run(50_000_000)
	if !k.AllExited() {
		t.Fatal("did not finish")
	}
	if k.Stats.ContextSwitches == 0 {
		t.Fatal("expected context switches")
	}
	wantBK := (k.Stats.ContextSwitches - 1) * k.cfg.Cost.DMACycles // first switch-in has no save
	if k.Stats.BookkeepingCycles < wantBK/2 || k.Stats.BookkeepingCycles == 0 {
		t.Fatalf("bookkeeping cycles = %d, switches = %d", k.Stats.BookkeepingCycles, k.Stats.ContextSwitches)
	}
}

func TestFirstAccessAcrossContextSwitches(t *testing.T) {
	// Two processes share text; with TimeCache each must pay first-access
	// misses for the other's cached lines; baseline must not.
	src := `
		movi r1, 0
		movi r2, 20000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`
	run := func(mode cache.SecMode) uint64 {
		k := newMachine(t, mode, 1)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		k.Load(prog, LoadOptions{ShareKey: "w", Name: "A"})
		k.Load(prog, LoadOptions{ShareKey: "w", Name: "B"})
		k.Run(100_000_000)
		if !k.AllExited() {
			t.Fatal("did not finish")
		}
		var fa uint64
		for _, c := range k.Hierarchy().Caches() {
			fa += c.Stats.FirstAccess
		}
		return fa
	}
	if fa := run(cache.SecOff); fa != 0 {
		t.Fatalf("baseline recorded %d first accesses", fa)
	}
	if fa := run(cache.SecTimeCache); fa == 0 {
		t.Fatal("TimeCache must record first accesses for shared text")
	}
}

func TestPageFaultKillsProcess(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	prog, err := asm.Assemble(`
		movi r1, 0xdead0000
		ld   r2, [r1]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ := k.Load(prog, LoadOptions{})
	k.Run(1_000_000)
	if p.State != Exited || p.Err == nil {
		t.Fatalf("state=%v err=%v; want exited with page fault", p.State, p.Err)
	}
	if !strings.Contains(p.Err.Error(), "page fault") {
		t.Fatalf("err = %v", p.Err)
	}
}

func TestWriteToReadOnlySharedTextFaults(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	prog, err := asm.Assemble(`
		movi r1, 0x10000  ; text base
		st   [r1], r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ := k.Load(prog, LoadOptions{ShareKey: "t"})
	k.Run(1_000_000)
	if p.Err == nil || !strings.Contains(p.Err.Error(), "read-only") {
		t.Fatalf("err = %v, want read-only violation", p.Err)
	}
}

func TestForkCOW(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	parentAS := NewAddressSpace(k.Physical())
	if err := parentAS.MapAnon(0x100000, mem.PageSize, true); err != nil {
		t.Fatal(err)
	}
	pa, _, _ := parentAS.Translate(0x100000, true)
	k.Physical().WriteU64(pa, 777)

	childAS, err := k.Fork(parentAS)
	if err != nil {
		t.Fatal(err)
	}
	// Same frame before any write.
	f1, _ := parentAS.FrameAt(0x100000)
	f2, _ := childAS.FrameAt(0x100000)
	if f1 != f2 {
		t.Fatal("fork must share frames")
	}
	// Child reads the parent's value.
	ca, _, _ := childAS.Translate(0x100000, false)
	if k.Physical().ReadU64(ca) != 777 {
		t.Fatal("child must see parent's data")
	}
	// Child write breaks COW.
	ca2, broke, err := childAS.Translate(0x100000, true)
	if err != nil || !broke {
		t.Fatalf("COW break expected, got broke=%v err=%v", broke, err)
	}
	k.Physical().WriteU64(ca2, 888)
	if k.Physical().ReadU64(pa) != 777 {
		t.Fatal("parent's page must be unchanged")
	}
	f1, _ = parentAS.FrameAt(0x100000)
	f2, _ = childAS.FrameAt(0x100000)
	if f1 == f2 {
		t.Fatal("COW break must split frames")
	}
}

func TestDedupMergesIdenticalPages(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	mk := func(name string) *Process {
		as := NewAddressSpace(k.Physical())
		if err := as.MapAnon(0x200000, 2*mem.PageSize, true); err != nil {
			t.Fatal(err)
		}
		// Fill the first page with identical contents in both processes.
		pa, _, _ := as.Translate(0x200000, true)
		for i := uint64(0); i < mem.PageSize; i += 8 {
			k.Physical().WriteU64(pa+i, i*3)
		}
		// Second page differs per process.
		pb, _, _ := as.Translate(0x200000+mem.PageSize, true)
		k.Physical().WriteU64(pb, uint64(len(name)))
		p, err := k.Spawn(name, procFunc(func(env sim.Env) bool { return false }), as, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := mk("one"), mk("three")
	merged := k.DedupScan()
	if merged != 1 {
		t.Fatalf("merged = %d, want 1 (only the identical page)", merged)
	}
	f1, _ := p1.AS.FrameAt(0x200000)
	f2, _ := p2.AS.FrameAt(0x200000)
	if f1 != f2 {
		t.Fatal("identical pages must share a frame after dedup")
	}
	if k.SavedFrames() != 1 {
		t.Fatalf("saved frames = %d, want 1", k.SavedFrames())
	}
	// A write to the merged page must break COW, not corrupt the other.
	pa2, broke, err := p2.AS.Translate(0x200000, true)
	if err != nil || !broke {
		t.Fatalf("post-dedup write must break COW: broke=%v err=%v", broke, err)
	}
	k.Physical().WriteU64(pa2, 12345)
	pa1, _, _ := p1.AS.Translate(0x200000, false)
	if k.Physical().ReadU64(pa1) == 12345 {
		t.Fatal("dedup COW isolation violated")
	}
}

func TestDedupEnablesCrossProcessCacheSharing(t *testing.T) {
	// After dedup, an access by process B hits the line process A loaded —
	// the reuse channel. With TimeCache it must be a first-access instead.
	for _, mode := range []cache.SecMode{cache.SecOff, cache.SecTimeCache} {
		k := newMachine(t, mode, 1)
		mkAS := func() *AddressSpace {
			as := NewAddressSpace(k.Physical())
			if err := as.MapAnon(0x300000, mem.PageSize, true); err != nil {
				t.Fatal(err)
			}
			pa, _, _ := as.Translate(0x300000, true)
			for i := uint64(0); i < mem.PageSize; i += 8 {
				k.Physical().WriteU64(pa+i, i)
			}
			return as
		}
		as1, as2 := mkAS(), mkAS()
		done1, done2 := false, false
		var res2 cache.Result
		p1 := procFunc(func(env sim.Env) bool {
			if done1 {
				return false
			}
			done1 = true
			env.Load(0x300000)
			env.Instret(1)
			return true
		})
		p2 := procFunc(func(env sim.Env) bool {
			if done2 {
				return false
			}
			done2 = true
			env.Instret(1)
			start := env.Now()
			env.Load(0x300000)
			elapsed := env.Now() - start
			res2 = cache.Result{Latency: elapsed}
			return true
		})
		k.Spawn("A", p1, as1, 0)
		k.Spawn("B", p2, as2, 0)
		if k.DedupScan() == 0 {
			t.Fatal("dedup found nothing")
		}
		k.Run(10_000_000)
		hcfg := k.Hierarchy().Config()
		fast := hcfg.L1Lat + hcfg.LLCLat // anything <= LLC hit is "fast reuse"
		if mode == cache.SecOff && res2.Latency > fast+hcfg.L1Lat {
			t.Fatalf("baseline: B's access should be a fast reuse hit, took %d", res2.Latency)
		}
		if mode == cache.SecTimeCache && res2.Latency < hcfg.DRAMLat {
			t.Fatalf("timecache: B's first access must pay the miss path, took %d", res2.Latency)
		}
	}
}

func TestFlushOnSwitchMode(t *testing.T) {
	hcfg := cache.DefaultHierarchyConfig()
	hier := cache.NewHierarchy(hcfg)
	phys := mem.NewPhysical(16384, hcfg.DRAMLat)
	kcfg := DefaultConfig()
	kcfg.FlushOnSwitch = true
	k := New(kcfg, hier, phys)
	prog, err := asm.Assemble(`
		movi r1, 0
		movi r2, 100000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	k.Load(prog, LoadOptions{ShareKey: "w", Name: "A"})
	k.Load(prog, LoadOptions{ShareKey: "w", Name: "B"})
	k.Run(200_000_000)
	if !k.AllExited() {
		t.Fatal("did not finish")
	}
	// Flushing on each switch forces refills: miss counts must be large.
	if hier.L1I(0).Stats.Misses < k.Stats.ContextSwitches {
		t.Fatalf("flush-on-switch should cause refills: misses=%d switches=%d",
			hier.L1I(0).Stats.Misses, k.Stats.ContextSwitches)
	}
}

func TestMultiCoreRunsConcurrently(t *testing.T) {
	k := newMachine(t, cache.SecOff, 2)
	prog, err := asm.Assemble(`
		movi r1, 0
		movi r2, 50000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, _ := k.Load(prog, LoadOptions{ShareKey: "w", Core: 0, Name: "A"})
	pb, _, _ := k.Load(prog, LoadOptions{ShareKey: "w", Core: 1, Name: "B"})
	k.Run(100_000_000)
	if pa.State != Exited || pb.State != Exited {
		t.Fatal("both must exit")
	}
	// Each ran on its own core with no context switching between them.
	if k.CoreClock(0) == 0 || k.CoreClock(1) == 0 {
		t.Fatal("both cores must have advanced")
	}
}

func TestKernelTextTouchedOnSyscall(t *testing.T) {
	k := newMachine(t, cache.SecOff, 1)
	before := k.Hierarchy().L1I(0).Stats.Accesses
	prog, err := asm.Assemble("sys 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	k.Load(prog, LoadOptions{})
	k.Run(1_000_000)
	after := k.Hierarchy().L1I(0).Stats.Accesses
	// 2 program fetches + kernel lines for the yield syscall.
	if after-before < uint64(2+k.Config().KernelLinesPerSyscall) {
		t.Fatalf("kernel text accesses missing: %d fetches", after-before)
	}
}

func TestRunInline(t *testing.T) {
	k := newMachine(t, cache.SecTimeCache, 1)
	as := NewAddressSpace(k.Physical())
	if err := as.MapAnon(0x100000, mem.PageSize, true); err != nil {
		t.Fatal(err)
	}
	idle := procFunc(func(env sim.Env) bool { return false })
	p, err := k.Spawn("inline", idle, as, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first, second uint64
	err = k.RunInline(p, func(env sim.Env) {
		t0 := env.Now()
		env.Load(0x100000)
		first = env.Now() - t0
		t0 = env.Now()
		env.Load(0x100000)
		second = env.Now() - t0
		env.Store(0x100008, 42)
	})
	if err != nil {
		t.Fatal(err)
	}
	if first <= second {
		t.Fatalf("first load should miss (%d), second hit (%d)", first, second)
	}
	// Memory effects are real.
	pa, _, _ := as.Translate(0x100008, false)
	if k.Physical().ReadU64(pa) != 42 {
		t.Fatal("inline store did not reach memory")
	}
	// RunInline on an exited process must error.
	p.State = Exited
	if err := k.RunInline(p, func(env sim.Env) {}); err == nil {
		t.Fatal("RunInline on exited process must error")
	}
}

// TestRunCtxNoStaleInterrupt pins the RunCtx/AfterFunc synchronization:
// when a context cancellation races with run completion, the interrupt
// callback must have finished before RunCtx returns. Otherwise a pooled
// machine could be Reset (clearing the sticky flag) and handed to a new
// run, and the stale callback would then spuriously abort that unrelated
// run. After RunCtx+Reset the flag must therefore always read clear.
func TestRunCtxNoStaleInterrupt(t *testing.T) {
	k := newMachine(t, cache.SecTimeCache, 1)
	for i := 0; i < 300; i++ {
		as := NewAddressSpace(k.Physical())
		if err := as.MapAnon(0x100000, mem.PageSize, true); err != nil {
			t.Fatal(err)
		}
		steps := 0
		proc := procFunc(func(env sim.Env) bool {
			env.Load(0x100000)
			steps++
			return steps < 4
		})
		if _, err := k.Spawn("short", proc, as, 0); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go cancel() // race the cancellation against run completion
		k.RunCtx(ctx, 10_000_000)
		k.Reset()
		if k.interrupted.Load() {
			t.Fatalf("iteration %d: interrupt callback fired after RunCtx returned and Reset cleared the flag", i)
		}
	}
}

func TestSMTSchedulerRunsSiblingThreads(t *testing.T) {
	hcfg := cache.DefaultHierarchyConfig()
	hcfg.Cores = 1
	hcfg.ThreadsPerCore = 2
	hier := cache.NewHierarchy(hcfg)
	phys := mem.NewPhysical(8192, hcfg.DRAMLat)
	k := New(DefaultConfig(), hier, phys)
	prog, err := asm.Assemble(`
		movi r1, 0
		movi r2, 30000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Two logical CPUs on one physical core: both must run concurrently,
	// sharing the L1I (one text copy, fetched by both hardware threads).
	pa, _, _ := k.Load(prog, LoadOptions{ShareKey: "smt", Core: 0, Name: "t0"})
	pb, _, _ := k.Load(prog, LoadOptions{ShareKey: "smt", Core: 1, Name: "t1"})
	k.Run(100_000_000)
	if pa.State != Exited || pb.State != Exited {
		t.Fatal("both hyperthreads must finish")
	}
	if k.Stats.ContextSwitches > 2 {
		t.Fatalf("SMT threads have their own contexts; got %d switches", k.Stats.ContextSwitches)
	}
	if hier.L1I(0).Stats.Accesses == 0 {
		t.Fatal("shared L1I unused")
	}
}

// TestDedupDeterministic pins that which frame survives a merge — and so
// which frames the scan frees and the next allocation reuses — depends only
// on the process table, never on Go's map iteration order: identical fresh
// kernels must come out of DedupScan identical.
func TestDedupDeterministic(t *testing.T) {
	const pages = 16
	type outcome struct {
		frames [2][pages]mem.Frame
		next   mem.Frame
		merged int
	}
	run := func() outcome {
		k := newMachine(t, cache.SecOff, 1)
		var procs [2]*Process
		for i := range procs {
			as := NewAddressSpace(k.Physical())
			if err := as.MapAnon(0x200000, pages*mem.PageSize, true); err != nil {
				t.Fatal(err)
			}
			p, err := k.Spawn("zero", procFunc(func(sim.Env) bool { return false }), as, 0)
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		var o outcome
		o.merged = k.DedupScan()
		for i, p := range procs {
			for pg := 0; pg < pages; pg++ {
				o.frames[i][pg], _ = p.AS.FrameAt(0x200000 + uint64(pg)*mem.PageSize)
			}
		}
		next, err := k.Physical().Alloc()
		if err != nil {
			t.Fatal(err)
		}
		o.next = next
		return o
	}
	first := run()
	if first.merged != 2*pages-1 {
		t.Fatalf("merged = %d, want %d (every zero page onto one frame)", first.merged, 2*pages-1)
	}
	for i := 1; i < 30; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: dedup outcome %+v differs from run 0 %+v", i, got, first)
		}
	}
}

// TestTouchMatchesLoad pins the timing-only load contract on the kernel
// side: Touch makes the same translation, hierarchy access and clock charge
// as Load, so two identical machines, one loading and one touching the same
// addresses, end in identical timing state.
func TestTouchMatchesLoad(t *testing.T) {
	run := func(touch bool) (uint64, []cache.Stats) {
		k := newMachine(t, cache.SecTimeCache, 1)
		as := NewAddressSpace(k.Physical())
		if err := as.MapAnon(0x200000, 8*mem.PageSize, true); err != nil {
			t.Fatal(err)
		}
		p, err := k.Spawn("p", procFunc(func(sim.Env) bool { return false }), as, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.RunInline(p, func(env sim.Env) {
			for i := uint64(0); i < 5000; i++ {
				addr := 0x200000 + (i*i*40)%(8*mem.PageSize)
				if i%5 == 0 {
					env.Store(addr, i)
				} else if touch {
					env.(sim.Toucher).Touch(addr)
				} else {
					env.Load(addr)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		var st []cache.Stats
		for _, c := range k.Hierarchy().Caches() {
			st = append(st, c.Stats)
		}
		return k.CoreClock(0), st
	}
	loadClock, loadStats := run(false)
	touchClock, touchStats := run(true)
	if loadClock != touchClock || !slices.Equal(loadStats, touchStats) {
		t.Fatalf("Touch diverged from Load: clock %d vs %d, stats %+v vs %+v", touchClock, loadClock, touchStats, loadStats)
	}
}

// TestCoreTLBNeverServesStaleTranslations pins the two ways the per-core
// TLB must notice that a cached translation no longer applies: the core
// switching to another address space (here one whose page-table version
// equals the last one's, so only the identity check catches it), and the
// running address space's page table changing underneath (here a thread on
// the other core breaking COW on a page this core has cached).
func TestCoreTLBNeverServesStaleTranslations(t *testing.T) {
	const addr = 0x200000
	nop := procFunc(func(sim.Env) bool { return false })
	inline := func(k *Kernel, p *Process, fn func(env sim.Env)) {
		t.Helper()
		if err := k.RunInline(p, fn); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(env sim.Env, who string, want uint64) {
		t.Helper()
		if got := env.Load(addr); got != want {
			t.Fatalf("%s loads %d, want %d", who, got, want)
		}
	}

	t.Run("address space switch", func(t *testing.T) {
		k := newMachine(t, cache.SecOff, 1)
		var procs [2]*Process
		for i := range procs {
			as := NewAddressSpace(k.Physical())
			if err := as.MapAnon(addr, mem.PageSize, true); err != nil {
				t.Fatal(err)
			}
			p, err := k.Spawn("p", nop, as, 0)
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		if procs[0].AS.version != procs[1].AS.version {
			t.Fatal("setup: the two address spaces must share a page-table version")
		}
		inline(k, procs[0], func(env sim.Env) { env.Store(addr, 1); expect(env, "first", 1) })
		inline(k, procs[1], func(env sim.Env) { expect(env, "second", 0); env.Store(addr, 2) })
		inline(k, procs[0], func(env sim.Env) { expect(env, "first", 1) })
	})

	t.Run("page table change", func(t *testing.T) {
		k := newMachine(t, cache.SecOff, 2)
		parent := NewAddressSpace(k.Physical())
		if err := parent.MapAnon(addr, mem.PageSize, true); err != nil {
			t.Fatal(err)
		}
		pa, _, _ := parent.Translate(addr, true)
		k.Physical().WriteU64(pa, 7)
		child, err := k.Fork(parent) // the page is now COW-shared
		if err != nil {
			t.Fatal(err)
		}
		t0, err := k.Spawn("t0", nop, child, 0)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := k.Spawn("t1", nop, child, 1)
		if err != nil {
			t.Fatal(err)
		}
		inline(k, t0, func(env sim.Env) { expect(env, "thread 0", 7) })
		inline(k, t1, func(env sim.Env) { env.Store(addr, 9) }) // breaks COW
		inline(k, t0, func(env sim.Env) { expect(env, "thread 0", 9) })
	})
}
