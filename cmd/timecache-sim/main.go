// Command timecache-sim runs a mix of workload models on a simulated
// machine and prints per-cache statistics, or runs one harness job.
//
// Usage:
//
//	timecache-sim -defense timecache -workloads lbm,wrf -instrs 300000
//	timecache-sim -defense none      -workloads 2Xperlbench
//	timecache-sim -compare -defense fase -workloads 2Xlbm   # table2: none vs fase
//	timecache-sim -llc-sweep 512K,1M,2M,4M -workloads 2Xlbm -j4
//
// -compare, -llc-sweep and -matrix run one harness job each (table2,
// llc-sweep, matrix) and print its table: -workloads then names pairs
// ("2Xlbm", "leslie+gobmk"), and warm-up is excluded from the measurement.
//
// Telemetry outputs (any may be combined; see internal/telemetry):
//
//	timecache-sim -defense timecache -metrics-out m.csv -sample-every 5000
//	timecache-sim -defense timecache -trace-json t.json    # load in Perfetto
//	timecache-sim -defense timecache -manifest run.json -hist
//
// -compare and -llc-sweep write one set of telemetry files per pair and
// leg, suffixed with both; -matrix writes none. Only a single run prints
// sparklines and -hist.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"timecache"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fatal(err)
	}
}

// run parses args on fs and runs what the flags select.
func run(fs *flag.FlagSet, args []string) error {
	var (
		kind      = defense.FlagVar(fs, defense.TimeCache)
		workloads = fs.String("workloads", "2Xlbm", "comma-separated SPEC profile names, or 2X<name> for a pair")
		instrs    = fs.Uint64("instrs", 300_000, "instructions per process")
		llc       = fs.Int("llc", 2<<20, "LLC size in bytes")
		llcSweep  = fs.String("llc-sweep", "", "comma-separated LLC sizes (e.g. 512K,1M,2M,4M): run the llc-sweep job over the -workloads pairs and report the geomean normalized time per size")
		matrixRun = fs.Bool("matrix", false, "run the defense×attack evaluation matrix and print the leakage/overhead grid")
		defenses  = fs.String("defenses", "", "comma-separated defense kinds for -matrix (default: every registered defense)")
		attacks   = fs.String("attacks", "", "comma-separated attack names for -matrix (default: the full corpus)")
		attackBit = fs.Int("attack-bits", 0, "secret length each -matrix attack transmits (default 32)")
		cores     = fs.Int("cores", 1, "number of cores")
		compare   = fs.Bool("compare", false, "run table2 on the -workloads pairs: the baseline (defense none) against the -defense kind, warm-up excluded")
		gate      = fs.Bool("gatelevel", false, "use the gate-level bit-serial comparator")
		cohCheck  = fs.Bool("coherence-check", false, "cross-check the LLC sharer directory against brute-force L1 probes on every coherence event (debug; slow)")
		jobs      = fs.Int("j", runtime.GOMAXPROCS(0), "legs in flight for -compare, -llc-sweep and -matrix (-j1 = one at a time; at most GOMAXPROCS machine runs simulate at once)")
		timeout   = fs.Duration("timeout", 0, "overall deadline (e.g. 30s); on expiry the run stops cleanly mid-simulation")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this path at exit")

		metricsOut  = fs.String("metrics-out", "", "write interval-metrics CSV to this path")
		histOut     = fs.String("hist-out", "", "write latency-histogram CSV to this path")
		traceJSON   = fs.String("trace-json", "", "write Chrome trace-event JSON (Perfetto-loadable) to this path")
		manifest    = fs.String("manifest", "", "write a JSON run manifest to this path")
		sampleEvery = fs.Uint64("sample-every", 0, "interval sampler period in instructions (default 10000)")
		traceAcc    = fs.Bool("trace-accesses", false, "add per-access instant events to the trace (verbose)")
		showHist    = fs.Bool("hist", false, "print latency histograms after a single run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *cores < 1 {
		return fmt.Errorf("-cores must be at least 1, got %d", *cores)
	}
	tcfg := telemetry.Config{
		SampleEvery:   *sampleEvery,
		TraceAccesses: *traceAcc,
		MetricsCSV:    *metricsOut,
		HistogramCSV:  *histOut,
		TraceJSON:     *traceJSON,
		ManifestJSON:  *manifest,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -matrix, -llc-sweep and -compare dispatch harness jobs: the same job
	// kinds cmd/reproduce and the job service's POST /v1/jobs run.
	var (
		title string
		j     harness.Job
	)
	switch {
	case *matrixRun:
		title = "Defense × attack matrix (leaked bits per attack; slowdown vs none):"
		j = harness.Job{
			Experiment: harness.ExpMatrix,
			Pairs:      splitList(*workloads),
			Defenses:   splitList(*defenses),
			Attacks:    splitList(*attacks),
			AttackBits: *attackBit,
		}
	case (*llcSweep != "" || *compare) && *cores != 1:
		return fmt.Errorf("-llc-sweep and -compare run each pair on one core; -cores %d is not supported", *cores)
	case *llcSweep != "":
		sizes, err := parseSizes(*llcSweep)
		if err != nil {
			return err
		}
		title = fmt.Sprintf("LLC sweep (%s, %d instrs/proc, warm-up excluded):", *workloads, *instrs)
		j = harness.Job{Experiment: harness.ExpLLCSweep, Pairs: splitList(*workloads), LLCSizes: sizes}
	case *compare:
		title = fmt.Sprintf("Table II, %s vs %s (%s, %d instrs/proc, warm-up excluded):", kind, defense.None, *workloads, *instrs)
		j = harness.Job{Experiment: harness.ExpTableII, Pairs: splitList(*workloads), Defenses: []string{kind.String()}}
	default:
		cfg := timecache.Config{Defense: kind.String(), LLCSize: *llc, Cores: *cores, GateLevel: *gate, CoherenceCheck: *cohCheck}
		return ctxErr(runOnce(ctx, cfg, *workloads, *instrs, tcfg, *showHist), *timeout)
	}
	opts := harness.Options{
		InstrsPerProc: *instrs, LLCSize: *llc, GateLevel: *gate, CoherenceCheck: *cohCheck,
		Jobs: *jobs, Ctx: ctx,
	}
	if tcfg != (telemetry.Config{}) {
		opts.Telemetry = &tcfg
	}
	tab, err := harness.RunJob(j, opts)
	if err != nil {
		return ctxErr(err, *timeout)
	}
	fmt.Println(title)
	fmt.Print(tab.String())
	return nil
}

// expand turns "2Xlbm" into ["lbm","lbm"] and passes other names through.
func expand(list string) []string {
	var out []string
	for _, w := range splitList(list) {
		if name, ok := strings.CutPrefix(w, "2X"); ok {
			out = append(out, name, name)
		} else {
			out = append(out, w)
		}
	}
	return out
}

// runOnce runs the workload mix once on a machine built from cfg and prints
// its statistics and, with telemetry on, the interval sparklines.
func runOnce(ctx context.Context, cfg timecache.Config, workloads string, instrs uint64, tcfg telemetry.Config, showHist bool) error {
	sys, err := timecache.New(cfg)
	if err != nil {
		return err
	}
	var col *telemetry.Collector
	if tcfg != (telemetry.Config{}) || showHist {
		col = sys.AttachTelemetry(tcfg)
		col.SetMeta("workloads", workloads)
		col.SetMeta("instrs_per_proc", instrs)
		col.SetMeta("defense", cfg.Defense)
	}
	names := expand(workloads)
	if len(names) == 0 {
		return fmt.Errorf("no workloads given")
	}
	for i, name := range names {
		if _, err := sys.SpawnSpec(name, i%cfg.Cores, instrs, uint64(1001+i*1001)); err != nil {
			return err
		}
	}
	cycles := sys.RunContext(ctx, 1<<62)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("stopped after %d cycles: %w", cycles, err)
	}
	if !sys.AllExited() {
		return fmt.Errorf("workloads did not finish")
	}
	if col != nil {
		if err := col.Finish(); err != nil {
			return err
		}
	}
	st := sys.Stats()
	sys.Release()
	fmt.Printf("defense=%s cycles=%d switches=%d syscalls=%d bookkeeping=%d cycles\n\n",
		cfg.Defense, cycles, st.ContextSwitches, st.Syscalls, st.BookkeepingCycles)
	tb := stats.NewTable("cache", "accesses", "hits", "misses", "first-access", "evictions")
	for _, c := range st.Caches {
		tb.Add(c.Name, c.Accesses, c.Hits, c.Misses, c.FirstAccess, c.Evictions)
	}
	fmt.Print(tb.String())
	reportTelemetry(col, showHist)
	return nil
}

// parseSize parses a byte size with an optional K/KB/M/MB/G/GB suffix.
func parseSize(s string) (int, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	for _, suf := range []struct {
		text string
		mult int
	}{{"KB", 1 << 10}, {"K", 1 << 10}, {"MB", 1 << 20}, {"M", 1 << 20}, {"GB", 1 << 30}, {"G", 1 << 30}} {
		if strings.HasSuffix(t, suf.text) {
			t = strings.TrimSuffix(t, suf.text)
			mult = suf.mult
			break
		}
	}
	n, err := strconv.Atoi(t)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}

// parseSizes parses a comma-separated list of sizes (see parseSize).
func parseSizes(list string) ([]int, error) {
	var sizes []int
	for _, f := range splitList(list) {
		n, err := parseSize(f)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("llc-sweep: no sizes given")
	}
	return sizes, nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// reportTelemetry prints the interval-series sparklines, a one-line summary
// of what was written, and (with -hist) the latency histograms.
func reportTelemetry(col *telemetry.Collector, showHist bool) {
	if col == nil {
		return
	}
	fmt.Println()
	fmt.Print(col.Sampler().Render())
	if showHist {
		fmt.Println()
		fmt.Print(col.Histograms().Render())
	}
	fmt.Printf("\ntelemetry: %d samples, %d accesses observed, %d trace events\n",
		len(col.Sampler().Samples()), col.Histograms().Total(), col.Trace().Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "timecache-sim:", err)
	os.Exit(1)
}

// ctxErr distinguishes a -timeout expiry (expected, reported as a clean
// partial-results stop) from a real failure.
func ctxErr(err error, timeout time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("-timeout %s expired: %v; partial results discarded", timeout, err)
	}
	return err
}
