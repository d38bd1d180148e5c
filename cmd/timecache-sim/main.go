// Command timecache-sim runs a mix of workload models on a simulated
// machine and prints per-cache statistics, normalized against an optional
// baseline run.
//
// Usage:
//
//	timecache-sim -defense timecache -workloads lbm,wrf -instrs 300000
//	timecache-sim -defense none      -workloads 2Xperlbench
//	timecache-sim -compare -workloads 2Xlbm   # run baseline AND timecache
//	timecache-sim -llc-sweep 512K,1M,2M,4M -workloads 2Xlbm -j4
//
// Telemetry outputs (any may be combined; see internal/telemetry):
//
//	timecache-sim -defense timecache -metrics-out m.csv -sample-every 5000
//	timecache-sim -defense timecache -trace-json t.json    # load in Perfetto
//	timecache-sim -defense timecache -manifest run.json -hist
//
// In -compare mode the telemetry outputs come from the timecache leg.
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
		compare   = fs.Bool("compare", false, "run baseline and timecache and report normalized time")
		gate      = fs.Bool("gatelevel", false, "use the gate-level bit-serial comparator")
		cohCheck  = fs.Bool("coherence-check", false, "cross-check the LLC sharer directory against brute-force L1 probes on every coherence event (debug; slow)")
		jobs      = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent legs for -llc-sweep and -matrix (-j1 = sequential)")
		timeout   = fs.Duration("timeout", 0, "overall deadline (e.g. 30s); on expiry the run stops cleanly mid-simulation")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this path at exit")

		metricsOut  = fs.String("metrics-out", "", "write interval-metrics CSV to this path")
		histOut     = fs.String("hist-out", "", "write latency-histogram CSV to this path")
		traceJSON   = fs.String("trace-json", "", "write Chrome trace-event JSON (Perfetto-loadable) to this path")
		manifest    = fs.String("manifest", "", "write a JSON run manifest to this path")
		sampleEvery = fs.Uint64("sample-every", 0, "interval sampler period in instructions (default 10000)")
		traceAcc    = fs.Bool("trace-accesses", false, "add per-access instant events to the trace (verbose)")
		showHist    = fs.Bool("hist", false, "print latency histograms after the run")
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

	tcfg := telemetry.Config{
		SampleEvery:   *sampleEvery,
		TraceAccesses: *traceAcc,
		MetricsCSV:    *metricsOut,
		HistogramCSV:  *histOut,
		TraceJSON:     *traceJSON,
		ManifestJSON:  *manifest,
	}
	telemetryOn := tcfg != (telemetry.Config{}) || *showHist

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -matrix and -llc-sweep dispatch harness jobs — the same job kinds
	// cmd/reproduce and the job service's POST /v1/jobs run.
	jobOpts := harness.Options{InstrsPerProc: *instrs, GateLevel: *gate, CoherenceCheck: *cohCheck, Jobs: *jobs, Ctx: ctx}
	if *matrixRun {
		j := harness.Job{
			Experiment: harness.ExpMatrix,
			Pairs:      splitList(*workloads),
			Defenses:   splitList(*defenses),
			Attacks:    splitList(*attacks),
			AttackBits: *attackBit,
		}
		if err := runJob("Defense × attack matrix (leaked bits per attack; slowdown vs none):", j, jobOpts); err != nil {
			return ctxErr(err, *timeout)
		}
		return nil
	}
	if *llcSweep != "" {
		if *cores != 1 {
			return fmt.Errorf("-llc-sweep runs each pair on one core; -cores %d is not supported", *cores)
		}
		sizes, err := parseSizes(*llcSweep)
		if err != nil {
			return err
		}
		j := harness.Job{Experiment: harness.ExpLLCSweep, Pairs: splitList(*workloads), LLCSizes: sizes}
		title := fmt.Sprintf("LLC sweep (%s, %d instrs/proc, warm-up excluded):", *workloads, *instrs)
		if err := runJob(title, j, jobOpts); err != nil {
			return ctxErr(err, *timeout)
		}
		return nil
	}
	if *compare {
		if err := runCompare(ctx, *workloads, *instrs, *llc, *cores, *gate, *cohCheck, tcfg, telemetryOn, *showHist); err != nil {
			return ctxErr(err, *timeout)
		}
		return nil
	}
	cycles, st, col, err := runOnce(ctx, kind.String(), *workloads, *instrs, *llc, *cores, *gate, *cohCheck, tcfg, telemetryOn)
	if err != nil {
		return ctxErr(err, *timeout)
	}
	printStats(kind.String(), cycles, st)
	reportTelemetry(col, *showHist)
	return nil
}

// expand turns "2Xlbm" into ["lbm","lbm"] and passes other names through.
func expand(list string) []string {
	var out []string
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if strings.HasPrefix(w, "2X") {
			name := strings.TrimPrefix(w, "2X")
			out = append(out, name, name)
		} else {
			out = append(out, w)
		}
	}
	return out
}

func runOnce(ctx context.Context, kind, workloads string, instrs uint64, llc, cores int, gate, cohCheck bool, tcfg telemetry.Config, withTelemetry bool) (uint64, timecache.Stats, *telemetry.Collector, error) {
	sys, err := timecache.New(timecache.Config{
		Defense: kind, LLCSize: llc, Cores: cores, GateLevel: gate,
		CoherenceCheck: cohCheck,
	})
	if err != nil {
		return 0, timecache.Stats{}, nil, err
	}
	var col *telemetry.Collector
	if withTelemetry {
		col = sys.AttachTelemetry(tcfg)
		col.SetMeta("workloads", workloads)
		col.SetMeta("instrs_per_proc", instrs)
		col.SetMeta("defense", kind)
	}
	names := expand(workloads)
	if len(names) == 0 {
		return 0, timecache.Stats{}, nil, fmt.Errorf("no workloads given")
	}
	for i, name := range names {
		if _, err := sys.SpawnSpec(name, i%cores, instrs, uint64(1001+i*1001)); err != nil {
			return 0, timecache.Stats{}, nil, err
		}
	}
	cycles := sys.RunContext(ctx, 1<<62)
	if err := ctx.Err(); err != nil {
		return 0, timecache.Stats{}, nil, fmt.Errorf("stopped after %d cycles: %w", cycles, err)
	}
	if !sys.AllExited() {
		return 0, timecache.Stats{}, nil, fmt.Errorf("workloads did not finish")
	}
	if col != nil {
		if err := col.Finish(); err != nil {
			return 0, timecache.Stats{}, nil, err
		}
	}
	st := sys.Stats()
	sys.Release()
	return cycles, st, col, nil
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

// runJob runs a harness job and prints its table under title.
func runJob(title string, j harness.Job, opts harness.Options) error {
	tab, err := harness.RunJob(j, opts)
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Print(tab.String())
	return nil
}

func runCompare(ctx context.Context, workloads string, instrs uint64, llc, cores int, gate, cohCheck bool, tcfg telemetry.Config, withTelemetry, showHist bool) error {
	bCycles, _, _, err := runOnce(ctx, defense.None, workloads, instrs, llc, cores, gate, cohCheck, telemetry.Config{}, false)
	if err != nil {
		return err
	}
	tCycles, st, col, err := runOnce(ctx, defense.TimeCache, workloads, instrs, llc, cores, gate, cohCheck, tcfg, withTelemetry)
	if err != nil {
		return err
	}
	printStats(defense.TimeCache, tCycles, st)
	reportTelemetry(col, showHist)
	norm := float64(tCycles) / float64(bCycles)
	fmt.Printf("\nbaseline cycles : %d\n", bCycles)
	fmt.Printf("timecache cycles: %d\n", tCycles)
	fmt.Printf("normalized time : %.4f (%.2f%% overhead, cold start included)\n",
		norm, (norm-1)*100)
	return nil
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

func printStats(kind string, cycles uint64, st timecache.Stats) {
	fmt.Printf("defense=%s cycles=%d switches=%d syscalls=%d bookkeeping=%d cycles\n\n",
		kind, cycles, st.ContextSwitches, st.Syscalls, st.BookkeepingCycles)
	tb := stats.NewTable("cache", "accesses", "hits", "misses", "first-access", "evictions")
	for _, c := range st.Caches {
		tb.Add(c.Name, c.Accesses, c.Hits, c.Misses, c.FirstAccess, c.Evictions)
	}
	fmt.Print(tb.String())
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
