package timecache

import (
	"strconv"
	"testing"
)

// TestAttackWrapperSweep exercises every public attack entry point at small
// sizes; the detailed behavioral assertions live in internal/attack — here
// we check the wrappers plumb configurations and results faithfully.
func TestAttackWrapperSweep(t *testing.T) {
	const bits, seed = 16, 3

	if r, err := RunEvictReloadAttack("timecache", bits, seed); err != nil || r.Hits != 0 {
		t.Fatalf("evict+reload: %+v err=%v", r, err)
	}
	if r, err := RunFlushFlushAttack("timecache", true, bits, seed); err != nil || r.Accuracy > 0.95 {
		t.Fatalf("flush+flush(ct): %+v err=%v", r, err)
	}
	if r, err := RunPrimeProbeAttack("none", false, bits, seed); err != nil || r.Accuracy < 0.8 {
		t.Fatalf("prime+probe: %+v err=%v", r, err)
	}
	if r, err := RunLRUAttack("none", "lru", bits, seed); err != nil || r.Accuracy < 0.8 {
		t.Fatalf("lru: %+v err=%v", r, err)
	}
	if _, err := RunLRUAttack("none", "bogus-policy", bits, seed); err == nil {
		t.Fatal("unknown replacement policy must error")
	}
	if r, err := RunCoherenceAttack("timecache", bits, seed); err != nil || r.Accuracy > 0.8 {
		t.Fatalf("coherence: %+v err=%v", r, err)
	}
	if r, err := RunSMTAttack("timecache", bits, seed); err != nil || r.Accuracy > 0.8 {
		t.Fatalf("smt: %+v err=%v", r, err)
	}
	if r, err := RunEvictTimeAttack("none", 500); err != nil || !r.Leaks {
		t.Fatalf("evict+time: %+v err=%v", r, err)
	}
	if r, err := RunSpectreChannel("timecache", []byte("ab")); err != nil || r.Hits != 0 {
		t.Fatalf("spectre: %+v err=%v", r, err)
	}
	if _, err := RunSpectreChannel("timecache", nil); err == nil {
		t.Fatal("empty spectre secret must error")
	}
	// Bit-string fields must be populated and consistent.
	r, err := RunSMTAttack("none", bits, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SecretBits) != bits || len(r.RecoveredBits) != bits {
		t.Fatalf("bit strings malformed: %q %q", r.SecretBits, r.RecoveredBits)
	}
}

// TestLimitedPointerConfig exercises the MaxSharers public plumbing.
func TestLimitedPointerConfig(t *testing.T) {
	sys, err := New(Config{Defense: "timecache", MaxSharers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := `
		movi r1, 0
		movi r2, 20000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`
	for i := 0; i < 2; i++ {
		if _, err := sys.LoadAsm(src, LoadOptions{ShareKey: "lim"}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(1 << 62)
	if !sys.AllExited() {
		t.Fatal("did not finish")
	}
	var fa uint64
	for _, c := range sys.Stats().Caches {
		fa += c.FirstAccess
	}
	if fa == 0 {
		t.Fatal("limited tracker must still produce first accesses")
	}
}

// TestDefenseAblationPublic covers the ablation job through the public
// seam: one row per registry defense in canonical order, and an unknown
// pair label is an error.
func TestDefenseAblationPublic(t *testing.T) {
	tab, err := RunJob(Job{Experiment: "ablation", Pairs: []string{"2Xnamd"}},
		ExperimentOptions{InstrsPerProc: 30_000, WarmupInstrs: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: defense, normalized-time.
	want := []string{"baseline", "timecache", "ftm", "partitioned", "flush-on-switch", "clepsydra", "fase"}
	if len(tab.Rows) != len(want) {
		t.Fatalf("expected %d defenses, got %d:\n%s", len(want), len(tab.Rows), tab.CSV())
	}
	for i, r := range tab.Rows {
		if r[0] != want[i] {
			t.Fatalf("row %d defense = %q, want %q", i, r[0], want[i])
		}
	}
	if _, err := RunJob(Job{Experiment: "ablation", Pairs: []string{"nope"}}, ExperimentOptions{}); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestBookkeepingScalingPublic covers the bookkeeping job through the
// public seam: the s-bit bookkeeping share shrinks as the slice grows.
func TestBookkeepingScalingPublic(t *testing.T) {
	tab, err := RunJob(Job{Experiment: "bookkeeping", SliceCycles: []uint64{150_000, 600_000}},
		ExperimentOptions{InstrsPerProc: 40_000, WarmupInstrs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: slice-cycles, bookkeeping-pct, total-overhead-pct.
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "150000" || tab.Rows[1][0] != "600000" {
		t.Fatalf("bookkeeping rows:\n%s", tab.CSV())
	}
	short, err := strconv.ParseFloat(tab.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	long, err := strconv.ParseFloat(tab.Rows[1][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if long >= short {
		t.Fatalf("longer slices must shrink the bookkeeping share:\n%s", tab.CSV())
	}
}
