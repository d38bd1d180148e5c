package harness

import (
	"strconv"
	"testing"

	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// smallOpts keeps harness tests fast; calibration-grade runs happen in the
// benchmarks and the reproduce tool.
func smallOpts() Options {
	return Options{InstrsPerProc: 60_000, WarmupInstrs: 120_000}
}

func TestRunSpecPairProducesSaneRow(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	r, err := runSpecPair(nil, pair, defense.TimeCache, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineCycles == 0 || r.TimeCacheCycles == 0 {
		t.Fatal("cycles not measured")
	}
	if r.Normalized < 0.9 || r.Normalized > 1.3 {
		t.Fatalf("normalized time %.4f implausible", r.Normalized)
	}
	if r.MPKITC < r.MPKIBase {
		t.Fatalf("TimeCache MPKI (%.4f) should not be below baseline (%.4f): first accesses add misses",
			r.MPKITC, r.MPKIBase)
	}
	if r.FirstAccess.L1I == 0 {
		t.Fatal("shared code across context switches must generate L1I first accesses")
	}
	if r.ContextSwitches == 0 {
		t.Fatal("two processes on one core must context switch")
	}
	if r.BookkeepingPct <= 0 {
		t.Fatal("bookkeeping must be charged")
	}
}

func TestStreamingPairHasHigherMPKI(t *testing.T) {
	low, err := runSpecPair(nil, workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}, defense.TimeCache, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	high, err := runSpecPair(nil, workload.Pair{Label: "2Xlbm", A: "lbm", B: "lbm"}, defense.TimeCache, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if high.MPKIBase < 10*low.MPKIBase {
		t.Fatalf("lbm (%.3f) must dwarf namd (%.3f) in LLC MPKI, as in Table II",
			high.MPKIBase, low.MPKIBase)
	}
}

func TestRunParsecNoL1FirstAccesses(t *testing.T) {
	r, err := runParsec(nil, "blackscholes", defense.TimeCache, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9b: threads pinned to separate cores never share an L1, so all
	// first accesses land at the LLC.
	if r.FirstAccess.L1I != 0 || r.FirstAccess.L1D != 0 {
		t.Fatalf("PARSEC threads on separate cores must have no L1 first accesses, got i=%.4f d=%.4f",
			r.FirstAccess.L1I, r.FirstAccess.L1D)
	}
	if r.FirstAccess.LLC == 0 {
		t.Fatal("shared data across cores must generate LLC first accesses")
	}
}

// cell parses the float in row r, column c of a RunJob table.
func cell(t *testing.T, tab *stats.Table, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[r][c], 64)
	if err != nil {
		t.Fatalf("row %d col %d: %v", r, c, err)
	}
	return v
}

func TestLLCSensitivityTrend(t *testing.T) {
	tab, err := RunJob(Job{Experiment: ExpLLCSweep, Pairs: []string{"2Xwrf", "2Xperlbench"},
		LLCSizes: []int{512 << 10, 2 << 20}}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d points", len(tab.Rows))
	}
	// Fig. 10: overhead shrinks with LLC size (fewer evictions of shared
	// lines means fewer first accesses).
	if small, big := cell(t, tab, 0, 2), cell(t, tab, 1, 2); big > small+0.05 {
		t.Fatalf("2MB overhead (%.3f%%) should not exceed 512KB overhead (%.3f%%)", big, small)
	}
}

func TestDefenseAblationOrdering(t *testing.T) {
	tab, err := RunJob(Job{Experiment: ExpAblation, Pairs: []string{"2Xgobmk"}}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The rows come from the defense registry in canonical order, with the
	// historical display names for the first five.
	want := []string{"baseline", "timecache", "ftm", "partitioned", "flush-on-switch", "clepsydra", "fase"}
	if len(tab.Rows) != len(want) {
		t.Fatalf("expected %d defenses, got %d", len(want), len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if r[0] != want[i] {
			t.Fatalf("row %d defense = %q, want %q", i, r[0], want[i])
		}
	}
	norm := map[string]float64{}
	for i, r := range tab.Rows {
		norm[r[0]] = cell(t, tab, i, 1)
	}
	if norm["baseline"] != 1.0 {
		t.Fatalf("baseline must normalize to 1.0, got %v", norm["baseline"])
	}
	// Flush-on-switch pays full refills every slice: by far the worst.
	if norm["flush-on-switch"] < norm["timecache"]+0.05 {
		t.Fatalf("flush-on-switch (%.4f) must cost much more than TimeCache (%.4f)",
			norm["flush-on-switch"], norm["timecache"])
	}
	// Way partitioning halves effective cache: worse than TimeCache here.
	if norm["partitioned"] < norm["timecache"] {
		t.Fatalf("partitioned (%.4f) expected to cost more than TimeCache (%.4f)",
			norm["partitioned"], norm["timecache"])
	}
	if _, ok := norm["ftm"]; !ok {
		t.Fatal("ftm row missing")
	}
}

func TestBookkeepingScalesDownWithSlice(t *testing.T) {
	tab, err := RunJob(Job{Experiment: ExpBookkeeping, SliceCycles: []uint64{100_000, 400_000}}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if short, long := cell(t, tab, 0, 1), cell(t, tab, 1, 1); long >= short {
		t.Fatalf("longer slices must shrink bookkeeping share: %.4f%% -> %.4f%%", short, long)
	}
}

func TestSbitCostMatchesPaper(t *testing.T) {
	b := SbitCost(Options{LLCSize: 2 << 20})
	if b.L1Transfers != 1 {
		t.Fatalf("32KB L1 s-bit column = %d transfers, want 1", b.L1Transfers)
	}
	if b.LLCTransfers != 64 {
		t.Fatalf("2MB LLC s-bit column = %d transfers, want 64", b.LLCTransfers)
	}
	// The DMA model charges the paper's 1.08 µs = 2160 cycles at 2 GHz.
	if b.DMACyclesPerSwitch != 2160 {
		t.Fatalf("DMA cycles = %d, want 2160", b.DMACyclesPerSwitch)
	}
}

func TestGateLevelMatchesFastPath(t *testing.T) {
	pair := workload.Pair{Label: "2Xspecrand", A: "specrand", B: "specrand"}
	opts := Options{InstrsPerProc: 30_000, WarmupInstrs: 50_000}
	fast, err := runSpecPair(nil, pair, defense.TimeCache, opts)
	if err != nil {
		t.Fatal(err)
	}
	gopts := opts
	gopts.GateLevel = true
	gate, err := runSpecPair(nil, pair, defense.TimeCache, gopts)
	if err != nil {
		t.Fatal(err)
	}
	// The gate-level comparator is functionally identical to the reference
	// comparison, so the simulation outcome must be identical.
	if fast.TimeCacheCycles != gate.TimeCacheCycles {
		t.Fatalf("gate-level run diverged: %d vs %d cycles", fast.TimeCacheCycles, gate.TimeCacheCycles)
	}
	if fast.MPKITC != gate.MPKITC {
		t.Fatalf("gate-level MPKI diverged: %v vs %v", fast.MPKITC, gate.MPKITC)
	}
}

// TestSnapshotShelfReuse pins the SnapshotAuto win: two identical legs on
// one shared pool produce identical results, and the second is served from
// the snapshot shelf (one shelf hit) instead of re-running its warmup.
func TestSnapshotShelfReuse(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	pool := machine.NewPool()
	opts := smallOpts()

	first, err := runSpecPair(pool, pair, defense.TimeCache, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.SnapshotHits != 0 {
		t.Fatalf("first run already hit the shelf: %+v", s)
	}
	second, err := runSpecPair(pool, pair, defense.TimeCache, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("shelf-forked rerun diverged:\n first %+v\nsecond %+v", first, second)
	}
	s = pool.Stats()
	// The second run's two legs (baseline, timecache) both fork.
	if s.SnapshotHits != 2 {
		t.Fatalf("snapshot hits = %d, want 2 (both modes forked)", s.SnapshotHits)
	}
}

// TestSnapshotModesAgree runs one pair under every snapshot mode and with
// the cold cross-check enabled: all four results must be identical.
func TestSnapshotModesAgree(t *testing.T) {
	pair := workload.Pair{Label: "2Xlbm", A: "lbm", B: "lbm"}
	base := smallOpts()

	var results []pairResult
	for _, mode := range []SnapshotMode{SnapshotOff, SnapshotAuto, SnapshotOn} {
		opts := base
		opts.Snapshot = mode
		r, err := runSpecPair(nil, pair, defense.TimeCache, opts)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		results = append(results, r)
	}
	check := base
	check.SnapshotCheck = true
	r, err := runSpecPair(nil, pair, defense.TimeCache, check)
	if err != nil {
		t.Fatalf("snapshot-check: %v", err)
	}
	results = append(results, r)
	for i, got := range results[1:] {
		if got != results[0] {
			t.Fatalf("result %d diverged from SnapshotOff:\n got %+v\nwant %+v", i+1, got, results[0])
		}
	}
}

// TestSnapshotTelemetryForcesCold: a telemetry collector observes the whole
// run including warmup, so telemetry legs must never fork (no shelf
// activity) even under SnapshotOn.
func TestSnapshotTelemetryForcesCold(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	pool := machine.NewPool()
	opts := smallOpts()
	opts.Snapshot = SnapshotOn
	opts.Telemetry = &telemetry.Config{}

	if _, err := runSpecPair(pool, pair, defense.TimeCache, opts); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.SnapshotHits != 0 || s.SnapshotMisses != 0 {
		t.Fatalf("telemetry run touched the snapshot shelf: %+v", s)
	}
}
