package kernel

import (
	"slices"
	"strings"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/mem"
	"timecache/internal/sim"
)

// faultProbe records what the scheduler reports about a run: AfterStep
// calls per core (count and the last clock seen) and every run span.
type faultProbe struct {
	steps    [2]uint64
	lastStep [2]uint64
	spans    []runSpan
}

type runSpan struct {
	core, pid  int
	start, end uint64
}

func (p *faultProbe) AfterStep(core int, now uint64) {
	p.steps[core]++
	p.lastStep[core] = now
}

func (p *faultProbe) OnContextSwitch(SwitchEvent) {}

func (p *faultProbe) OnRunSpan(core, pid int, _ string, start, end uint64) {
	p.spans = append(p.spans, runSpan{core, pid, start, end})
}

// spawnLooper maps a private data page at 0x200000 and spawns a process on
// core that loads and stores over it for steps instructions. When faultAt is
// nonzero the process instead touches an unmapped address at that step.
func spawnLooper(t *testing.T, k *Kernel, name string, core, steps, faultAt int) *Process {
	t.Helper()
	as := NewAddressSpace(k.Physical())
	if err := as.MapAnon(0x200000, 4*mem.PageSize, true); err != nil {
		t.Fatal(err)
	}
	i := 0
	proc := procFunc(func(env sim.Env) bool {
		if i == steps {
			env.Syscall(sim.SysExit, 0)
			return false
		}
		if faultAt > 0 && i == faultAt {
			env.Load(0xdead0000)
		}
		addr := uint64(0x200000 + (i*72)%(4*mem.PageSize))
		if i%3 == 0 {
			env.Store(addr, uint64(i))
		} else {
			env.Load(addr)
		}
		env.Tick(1)
		env.Instret(1)
		i++
		return true
	})
	p, err := k.Spawn(name, proc, as, core)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultRecoveryMidRun pins how the scheduler retires a process that
// faults while other processes keep running: on two cores, the faulter is
// killed mid-run after several preemptions, a bystander on its core runs on
// after it, and the process on the other core finishes undisturbed. Every
// number is the scheduler's exact accounting, so any change to where or how
// the fault is recovered that perturbs simulated time fails here.
func TestFaultRecoveryMidRun(t *testing.T) {
	k := newMachine(t, cache.SecTimeCache, 2)
	probe := &faultProbe{}
	k.SetProbe(probe)
	faulter := spawnLooper(t, k, "faulter", 0, 400_000, 150_000)
	bystander := spawnLooper(t, k, "bystander", 0, 120_000, 0)
	survivor := spawnLooper(t, k, "survivor", 1, 200_000, 0)
	k.Run(1 << 40)

	if faulter.State != Exited || faulter.Err == nil ||
		!strings.Contains(faulter.Err.Error(), "page fault at 0xdead0000") {
		t.Fatalf("faulter: state=%v err=%v; want exited with a page fault at 0xdead0000", faulter.State, faulter.Err)
	}
	want := ProcStats{Instructions: 150_000, CPUCycles: 506_320, FinishedAt: 927_123, Switches: 3}
	if faulter.Stats != want {
		t.Errorf("faulter stats = %+v, want %+v", faulter.Stats, want)
	}
	for _, p := range []*Process{bystander, survivor} {
		if p.State != Exited || p.Err != nil {
			t.Errorf("%s: state=%v err=%v; want a clean exit", p.Name, p.State, p.Err)
		}
	}
	if want := (ProcStats{Instructions: 120_000, CPUCycles: 418_096, FinishedAt: 949_376, Switches: 3}); bystander.Stats != want {
		t.Errorf("bystander stats = %+v, want %+v", bystander.Stats, want)
	}
	if want := (ProcStats{Instructions: 200_000, CPUCycles: 658_096, FinishedAt: 662_256, Switches: 1}); survivor.Stats != want {
		t.Errorf("survivor stats = %+v, want %+v", survivor.Stats, want)
	}
	if c0, c1 := k.CoreClock(0), k.CoreClock(1); c0 != 949_376 || c1 != 662_256 {
		t.Errorf("core clocks = %d, %d; want 949376, 662256", c0, c1)
	}
	if want := [2]uint64{270_002, 200_001}; probe.steps != want {
		t.Errorf("AfterStep calls per core = %v, want %v", probe.steps, want)
	}
	if want := [2]uint64{949_376, 662_256}; probe.lastStep != want {
		t.Errorf("last AfterStep clock per core = %v, want %v", probe.lastStep, want)
	}
	// The faulter's last run span closes at the fault, and the bystander
	// resumes on its core right after it.
	var spans []runSpan
	for _, s := range probe.spans {
		if s.core == 0 {
			spans = append(spans, s)
		}
	}
	f, b := faulter.PID, bystander.PID
	wantSpans := []runSpan{
		{0, f, 4160, 204_162}, {0, b, 208_322, 408_324},
		{0, f, 412_484, 612_485}, {0, b, 616_645, 816_646},
		{0, f, 820_806, 927_123}, {0, b, 931_283, 949_376},
	}
	if !slices.Equal(spans, wantSpans) {
		t.Errorf("core 0 run spans = %+v, want %+v", spans, wantSpans)
	}
}

// TestNonFaultPanicEscapesRun pins that the scheduler recovers only process
// faults: any other panic inside a Proc propagates out of Run unchanged.
func TestNonFaultPanicEscapesRun(t *testing.T) {
	k := newMachine(t, cache.SecOff, 2)
	spawnLooper(t, k, "survivor", 1, 50_000, 0)
	steps := 0
	as := NewAddressSpace(k.Physical())
	if _, err := k.Spawn("panicker", procFunc(func(env sim.Env) bool {
		if steps++; steps == 1000 {
			panic("boom")
		}
		env.Tick(1)
		return true
	}), as, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the Proc's own panic value \"boom\"", r)
		}
	}()
	k.Run(1 << 40)
	t.Fatal("Run returned; want the Proc's panic to escape it")
}
