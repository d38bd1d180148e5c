package timecache

// One benchmark per table and figure of the paper's evaluation. Each bench
// runs the corresponding experiment at a reduced (but calibrated)
// instruction budget and reports the headline quantity through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the paper's
// numbers alongside the runtime cost of producing them. The experiments run
// as jobs through RunJob and the metrics are read off the job tables — the
// same tables the `reproduce` command writes at full scale.

import (
	"strconv"
	"testing"

	"timecache/internal/harness"
	"timecache/internal/stats"
)

// benchOpts trades statistical tightness for bench runtime.
func benchOpts() ExperimentOptions {
	return ExperimentOptions{InstrsPerProc: 100_000, WarmupInstrs: 150_000}
}

// benchJob runs one job at bench scale and returns its table.
func benchJob(b *testing.B, j Job) *Table {
	b.Helper()
	tab, err := RunJob(j, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// column reads one numeric column of a job table.
func column(b *testing.B, tab *Table, col int) []float64 {
	b.Helper()
	out := make([]float64, len(tab.Rows))
	for i, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[col], 64)
		if err != nil {
			b.Fatalf("%s row %d: %v", tab.Header[col], i, err)
		}
		out[i] = v
	}
	return out
}

// mean returns the arithmetic mean of xs (zero for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// The table2 and parsec columns: workload, normalized, mpki-base, mpki-tc,
// fa-l1i, fa-l1d, fa-llc.
const (
	colNormalized = 1
	colMPKIBase   = 2
	colMPKITC     = 3
	colFAL1I      = 4
	colFAL1D      = 5
	colFALLC      = 6
)

// BenchmarkFig7SpecNormalizedTime reproduces Fig. 7: normalized execution
// time of SPEC2006 pairs on one core (paper geomean: 1.13% overhead).
func BenchmarkFig7SpecNormalizedTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "table2"})
		b.ReportMetric(stats.OverheadPct(stats.GeoMean(column(b, tab, colNormalized))), "overhead-%")
	}
}

// BenchmarkFig8FirstAccessMPKI reproduces Fig. 8: delayed-access MPKI per
// cache level for the single-core SPEC runs.
func BenchmarkFig8FirstAccessMPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "table2"})
		b.ReportMetric(mean(column(b, tab, colFAL1I)), "L1I-faMPKI")
		b.ReportMetric(mean(column(b, tab, colFAL1D)), "L1D-faMPKI")
		b.ReportMetric(mean(column(b, tab, colFALLC)), "LLC-faMPKI")
	}
}

// BenchmarkFig9aParsecNormalizedTime reproduces Fig. 9a: PARSEC 2-thread
// 2-core normalized execution time (paper geomean: 0.8% overhead).
func BenchmarkFig9aParsecNormalizedTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "parsec"})
		b.ReportMetric(stats.OverheadPct(stats.GeoMean(column(b, tab, colNormalized))), "overhead-%")
	}
}

// BenchmarkFig9bParsecMPKI reproduces Fig. 9b: PARSEC delayed-access MPKI
// per cache. With threads pinned to separate cores, the L1 components are
// structurally zero and all first accesses land at the LLC.
func BenchmarkFig9bParsecMPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "parsec"})
		b.ReportMetric(mean(column(b, tab, colFAL1I))+mean(column(b, tab, colFAL1D)), "L1-faMPKI")
		b.ReportMetric(mean(column(b, tab, colFALLC)), "LLC-faMPKI")
	}
}

// BenchmarkTableIIOverheadMPKI reproduces Table II's MPKI columns: the
// average baseline and TimeCache LLC MPKI across the SPEC workloads
// (paper averages: 7.26 and 7.51).
func BenchmarkTableIIOverheadMPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "table2"})
		b.ReportMetric(mean(column(b, tab, colMPKIBase)), "MPKI-base")
		b.ReportMetric(mean(column(b, tab, colMPKITC)), "MPKI-timecache")
	}
}

// BenchmarkFig10LLCSensitivity reproduces Fig. 10: geomean overhead versus
// LLC size (scaled sweep: at this simulator's budgets eviction pressure
// appears at proportionally smaller caches; the paper's 1B-instruction
// runs show the same decreasing shape at 2/4/8 MB).
func BenchmarkFig10LLCSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "llc-sweep", LLCSizes: []int{512 << 10, 1 << 20, 2 << 20}})
		// Columns: llc, geomean-normalized, overhead-pct.
		for j, v := range column(b, tab, 2) {
			b.ReportMetric(v, tab.Rows[j][0]+"-overhead-%")
		}
	}
}

// BenchmarkMicrobenchmarkAttack reproduces §VI-A1: attacker hits on the
// 256-line shared array, baseline versus TimeCache (paper: all vs zero).
func BenchmarkMicrobenchmarkAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := RunMicrobenchmark(Baseline)
		if err != nil {
			b.Fatal(err)
		}
		def, err := RunMicrobenchmark(TimeCache)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(base.Hits), "baseline-hits")
		b.ReportMetric(float64(def.Hits), "timecache-hits")
	}
}

// BenchmarkRSAAttack reproduces §VI-A2: fraction of RSA key bits recovered
// by flush+reload (paper: attack succeeds on baseline, fully blocked by
// the defense).
func BenchmarkRSAAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := RunRSAAttack(Baseline, 64, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		def, err := RunRSAAttack(TimeCache, 64, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(base.Accuracy*100, "baseline-key-%")
		b.ReportMetric(def.Accuracy*100, "timecache-key-%")
		b.ReportMetric(float64(def.Hits), "timecache-hits")
	}
}

// BenchmarkSbitSaveRestore reproduces §VI-D: the context-switch s-bit
// bookkeeping share of execution time, and its decay as the scheduler
// slice grows toward realistic lengths (paper: ~0.02%).
func BenchmarkSbitSaveRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "bookkeeping", SliceCycles: []uint64{100_000, 800_000}})
		// Columns: slice-cycles, bookkeeping-pct, total-overhead-pct.
		pct := column(b, tab, 1)
		b.ReportMetric(pct[0], "short-slice-%")
		b.ReportMetric(pct[len(pct)-1], "long-slice-%")
		costs := harness.SbitCost(benchOpts())
		b.ReportMetric(float64(costs.DMACyclesPerSwitch), "DMA-cycles/switch")
	}
}

// BenchmarkRolloverOverhead reproduces §VI-C: running with a deliberately
// tiny timestamp (12 bits rolls over every 4096 cycles) forces constant
// rollover resets; correctness holds and the cost is extra first-access
// misses relative to the 32-bit configuration.
func BenchmarkRolloverOverhead(b *testing.B) {
	run := func(bits uint) uint64 {
		sys, err := New(Config{Mode: TimeCache, TimestampBits: bits})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := sys.SpawnSpec("gobmk", 0, 60_000, uint64(1001+i*1001)); err != nil {
				b.Fatal(err)
			}
		}
		sys.Run(1 << 62)
		if !sys.AllExited() {
			b.Fatal("did not finish")
		}
		var fa uint64
		for _, c := range sys.Stats().Caches {
			fa += c.FirstAccess
		}
		return fa
	}
	for i := 0; i < b.N; i++ {
		wide := run(32)
		narrow := run(12)
		b.ReportMetric(float64(wide), "firstaccess-32bit")
		b.ReportMetric(float64(narrow), "firstaccess-12bit")
		if narrow < wide {
			b.Fatal("rollover resets must not reduce first accesses")
		}
	}
}

// BenchmarkOtherAttacks reproduces §VII: accuracy of each non-reuse attack
// under TimeCache, with and without its designated mitigation.
func BenchmarkOtherAttacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ff, err := RunFlushFlushAttack(TimeCache, false, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		ffFixed, err := RunFlushFlushAttack(TimeCache, true, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		coh, err := RunCoherenceAttack(TimeCache, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		lru, err := RunLRUAttack(TimeCache, "lru", 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		pp, err := RunPrimeProbeAttack(TimeCache, false, 32, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ff.Accuracy*100, "flushflush-%")
		b.ReportMetric(ffFixed.Accuracy*100, "flushflush-ctflush-%")
		b.ReportMetric(coh.Accuracy*100, "coherence-%")
		b.ReportMetric(lru.Accuracy*100, "lru-%")
		b.ReportMetric(pp.Accuracy*100, "primeprobe-%")
	}
}

// BenchmarkDefenseAblation compares TimeCache's overhead with the FTM,
// way-partitioning, and flush-on-switch baselines from DESIGN.md.
func BenchmarkDefenseAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchJob(b, Job{Experiment: "ablation"})
		// Columns: defense, normalized-time.
		for j, v := range column(b, tab, 1) {
			b.ReportMetric(stats.OverheadPct(v), tab.Rows[j][0]+"-overhead-%")
		}
	}
}

// BenchmarkGateLevelComparator measures the cost of simulating the
// context-switch comparison through the gate-level transposed-SRAM model
// relative to the functional fast path (results are identical; only
// simulator time differs).
func BenchmarkGateLevelComparator(b *testing.B) {
	opts := ExperimentOptions{InstrsPerProc: 40_000, WarmupInstrs: 60_000, GateLevel: true}
	for i := 0; i < b.N; i++ {
		if _, err := RunJob(Job{Experiment: "table2", Pairs: []string{"2Xspecrand"}}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimitedPointerTracker compares the paper's full per-context
// s-bit map against the §VI-C limited-pointer area optimization on a
// 4-context machine (2 cores x 2 SMT threads): pointer overflow converts
// area savings into extra first-access misses.
func BenchmarkLimitedPointerTracker(b *testing.B) {
	run := func(maxSharers int) (firstAccess uint64) {
		sys, err := New(Config{Mode: TimeCache, Cores: 2, MaxSharers: maxSharers})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := sys.SpawnSpec("gobmk", i, 80_000, uint64(1001+i*1001)); err != nil {
				b.Fatal(err)
			}
		}
		sys.Run(1 << 62)
		if !sys.AllExited() {
			b.Fatal("did not finish")
		}
		for _, c := range sys.Stats().Caches {
			firstAccess += c.FirstAccess
		}
		return firstAccess
	}
	for i := 0; i < b.N; i++ {
		full := run(0)
		limited := run(1)
		b.ReportMetric(float64(full), "fullmap-firstaccess")
		b.ReportMetric(float64(limited), "limited1-firstaccess")
		if limited < full {
			b.Fatal("limited pointers must not reduce first accesses")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: modeled
// instructions per second of wall-clock for a representative workload pair
// under TimeCache (the figure that bounds how far experiment budgets can
// be raised).
func BenchmarkSimulatorThroughput(b *testing.B) {
	const instrs = 200_000
	for i := 0; i < b.N; i++ {
		sys, err := New(Config{Mode: TimeCache})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, err := sys.SpawnSpec("gobmk", 0, instrs, uint64(1001+j*1001)); err != nil {
				b.Fatal(err)
			}
		}
		sys.Run(1 << 62)
		if !sys.AllExited() {
			b.Fatal("did not finish")
		}
	}
	b.ReportMetric(float64(2*instrs*b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
