package harness

import (
	"testing"
	"time"

	"timecache/internal/defense"
	"timecache/internal/workload"
)

func TestResourcesAdd(t *testing.T) {
	a := Resources{Legs: 1, SimCycles: 2, Instructions: 3, L1IAccesses: 4,
		L1DAccesses: 5, LLCAccesses: 6, ContextSwitches: 7, SBitDelayedLoads: 8}
	b := Resources{Legs: 10, SimCycles: 20, Instructions: 30, L1IAccesses: 40,
		L1DAccesses: 50, LLCAccesses: 60, ContextSwitches: 70, SBitDelayedLoads: 80}
	want := Resources{Legs: 11, SimCycles: 22, Instructions: 33, L1IAccesses: 44,
		L1DAccesses: 55, LLCAccesses: 66, ContextSwitches: 77, SBitDelayedLoads: 88}
	if got := a.Add(b); got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

// TestResourceAccountOnRun attaches an account to a real (small) SPEC pair
// run and checks the leg-granularity accounting: one leg per mode, whole-run
// counters strictly above the steady-state numbers the row reports (warmup
// is charged), and deterministic across identical runs.
func TestResourceAccountOnRun(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	run := func() Resources {
		account := &ResourceAccount{}
		opts := smallOpts()
		opts.Account = account
		if _, err := runSpecPair(nil, pair, defense.TimeCache, opts); err != nil {
			t.Fatal(err)
		}
		return account.Snapshot()
	}
	got := run()
	if got.Legs != 2 {
		t.Fatalf("a pair runs baseline + timecache = 2 legs, got %d", got.Legs)
	}
	if got.SimCycles == 0 || got.Instructions == 0 {
		t.Fatalf("cycles/instructions not charged: %+v", got)
	}
	// Two processes, both instruction budgets, both modes: at least
	// 2 procs x (warmup+measured) x 2 legs instructions executed.
	min := 2 * 2 * (smallOpts().InstrsPerProc + smallOpts().WarmupInstrs)
	if got.Instructions < min {
		t.Fatalf("instructions %d below the %d the budgets demand", got.Instructions, min)
	}
	if got.L1IAccesses == 0 || got.L1DAccesses == 0 || got.LLCAccesses == 0 {
		t.Fatalf("cache accesses not charged at every level: %+v", got)
	}
	if got.ContextSwitches == 0 {
		t.Fatalf("two processes on one core must context switch: %+v", got)
	}
	if got.SBitDelayedLoads == 0 {
		t.Fatalf("the TimeCache leg must delay some first accesses: %+v", got)
	}
	if again := run(); again != got {
		t.Fatalf("identical runs diverged:\n got %+v\nwant %+v", again, got)
	}
}

func TestResourceAccountNilSafe(t *testing.T) {
	var a *ResourceAccount
	a.add(measurement{})
	a.AddLeg()
	if s := a.Snapshot(); s != (Resources{}) {
		t.Fatalf("nil account snapshot = %+v, want zeros", s)
	}
}

// TestLegHooksZeroAlloc is the zero-overhead guard: with neither an account
// nor a span sink attached, the per-leg hooks must not allocate (and must
// not read the clock — legStart returns the zero time). This is what keeps
// observability free for plain CLI runs.
func TestLegHooksZeroAlloc(t *testing.T) {
	var opts Options
	allocs := testing.AllocsPerRun(1000, func() {
		start := opts.legStart()
		opts.finishLeg("x", start, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled leg hooks allocate %.1f allocs/op, want 0", allocs)
	}
	if !opts.legStart().IsZero() {
		t.Fatal("legStart must not read the clock when no span sink is attached")
	}
}

// BenchmarkLegHooksDisabled measures the disabled-path cost recorded in
// BENCH_baseline.json (expected: sub-ns, 0 allocs/op).
func BenchmarkLegHooksDisabled(b *testing.B) {
	var opts Options
	b.ReportAllocs()
	var start time.Time
	for i := 0; i < b.N; i++ {
		start = opts.legStart()
		opts.finishLeg("x", start, nil)
	}
	_ = start
}
