// Command reproduce regenerates every table and figure of the paper's
// evaluation: Fig. 7 (SPEC normalized time), Fig. 8 (delayed-access MPKI
// per level), Fig. 9a/9b (PARSEC), Table II, Fig. 10 (LLC sensitivity),
// the §VI-A security experiments, the §VI-D bookkeeping costs, the defense
// ablation, and the defense×attack matrix.
//
// Every experiment is one job run through harness.RunJob — the same path
// the job service and the golden tests take — and the CSV and markdown
// written into -out are the job's table, byte for byte. The ASCII charts,
// the paper side-by-side, and the summary lines printed to stdout are drawn
// from that table's cells.
//
// Usage:
//
//	reproduce                  # everything at default scale (~minutes)
//	reproduce -quick           # reduced instruction budgets (~1 minute)
//	reproduce -only table2     # one experiment: fig7|fig8|fig9|table2|
//	                           #   fig10|security|bookkeeping|ablation|matrix
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"timecache"
	"timecache/internal/harness"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

// experiment binds a -only name to the job it runs, the file its table is
// written to, and the stdout rendering drawn from that table.
type experiment struct {
	name string
	job  harness.Job
	file string
	show func(w io.Writer, tab *stats.Table)
}

// ablationPair is the workload the defense ablation runs on.
const ablationPair = "2Xgobmk"

// experiments lists every experiment in run order. opts feeds the §VI-D
// cost model printed beside the bookkeeping table.
func experiments(opts harness.Options) []experiment {
	return []experiment{
		{"table2", harness.Job{Experiment: harness.ExpTableII}, "table2_spec.csv", func(w io.Writer, tab *stats.Table) {
			showPairs(w, tab, "Fig. 7: normalized execution time (single core, 2 processes)",
				"Fig. 8: delayed-access MPKI per cache level", "Table II (SPEC2006):")
		}},
		{"fig9", harness.Job{Experiment: harness.ExpParsec}, "table2_parsec.csv", func(w io.Writer, tab *stats.Table) {
			showPairs(w, tab, "Fig. 9a: PARSEC normalized execution time (2 threads, 2 cores)",
				"Fig. 9b: PARSEC delayed-access MPKI per cache", "Table II (PARSEC):")
		}},
		{"fig10", harness.Job{Experiment: harness.ExpLLCSweep}, "fig10_llc_sensitivity.csv", func(w io.Writer, tab *stats.Table) {
			chart := textplot.Chart{Title: "Fig. 10: overhead vs LLC size (scaled sweep; paper: 1.13%/0.4%/0.1% at 2/4/8MB)", Format: "%.3f%%"}
			for _, r := range tab.Rows {
				chart.Add(r[0], num(r, 2))
			}
			fmt.Fprintln(w, chart.String())
			fmt.Fprintln(w, tab.String())
		}},
		{"security", harness.Job{Experiment: harness.ExpSecurity}, "security.csv", func(w io.Writer, tab *stats.Table) {
			fmt.Fprintln(w, "Security evaluation (§VI-A):")
			fmt.Fprintln(w, tab.String())
		}},
		{"bookkeeping", harness.Job{Experiment: harness.ExpBookkeeping}, "bookkeeping.csv", func(w io.Writer, tab *stats.Table) {
			costs := harness.SbitCost(opts)
			fmt.Fprintln(w, "§VI-D s-bit save/restore costs:")
			fmt.Fprintf(w, "  L1 column: %d 64B transfers; LLC column: %d transfers\n", costs.L1Transfers, costs.LLCTransfers)
			fmt.Fprintf(w, "  per switch: DMA %d cycles (1.08us at 2GHz), copy %d cycles\n",
				costs.DMACyclesPerSwitch, costs.CopyCyclesPerSwitch)
			fmt.Fprintln(w, tab.String())
			fmt.Fprintln(w, "  (at Linux-scale 1-10ms slices the share converges on the paper's ~0.02%)")
		}},
		{"ablation", harness.Job{Experiment: harness.ExpAblation, Pairs: []string{ablationPair}}, "ablation.csv", func(w io.Writer, tab *stats.Table) {
			chart := textplot.Chart{Title: "Defense ablation on " + ablationPair, Baseline: 1.0}
			for _, r := range tab.Rows {
				chart.Add(r[0], num(r, 1))
			}
			fmt.Fprintln(w, chart.String())
			fmt.Fprintln(w, tab.String())
		}},
		{"matrix", harness.Job{Experiment: harness.ExpMatrix}, "matrix.csv", func(w io.Writer, tab *stats.Table) {
			fmt.Fprintln(w, "Defense × attack matrix (leaked bits per attack; slowdown vs none):")
			fmt.Fprintln(w, tab.String())
		}},
	}
}

// aliases maps the figure names that share an experiment onto its name.
var aliases = map[string]string{"fig7": "table2", "fig8": "table2", "fig9a": "fig9", "fig9b": "fig9"}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	var (
		out     = fs.String("out", "results", "directory for CSV output")
		quick   = fs.Bool("quick", false, "reduced instruction budgets")
		only    = fs.String("only", "", "run a single experiment")
		instrs  = fs.Uint64("instrs", 0, "override measured instructions per process")
		warmup  = fs.Uint64("warmup", 0, "override warmup instructions per process")
		jobs    = fs.Int("j", runtime.GOMAXPROCS(0), "legs in flight (-j1 = one at a time; at most GOMAXPROCS machine runs simulate at once); output is byte-identical at any -j")
		timeout = fs.Duration("timeout", 0, "overall deadline (e.g. 90s); on expiry the sweep stops cleanly and completed experiments keep their CSVs")

		cohCheck = fs.Bool("coherence-check", false, "cross-check the LLC sharer directory against brute-force L1 probes on every coherence event (debug; slow)")

		snapCheck = fs.Bool("snapshot-check", false, "cross-run every snapshot-forked leg from cold and fail on any counter divergence (debug; slow)")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this path at exit")

		resources = fs.String("resources", "", "write aggregate resource counters (cycles, instructions, cache accesses, switches, s-bit delayed loads) as JSON to this path at exit")

		withTelemetry = fs.Bool("telemetry", false, "attach telemetry to every run: interval metrics + run manifests next to the CSVs in -out")
		metricsOut    = fs.String("metrics-out", "", "interval-metrics CSV base path (suffixed per workload/mode)")
		traceJSON     = fs.String("trace-json", "", "Chrome trace-event JSON base path (suffixed per workload/mode)")
		manifest      = fs.String("manifest", "", "run-manifest JSON base path (suffixed per workload/mode)")
		sampleEvery   = fs.Uint64("sample-every", 0, "interval sampler period in instructions (default 10000)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opts := harness.Options{InstrsPerProc: 300_000, WarmupInstrs: 250_000}
	if *quick {
		opts = harness.Options{InstrsPerProc: 100_000, WarmupInstrs: 150_000}
	}
	if *instrs != 0 {
		opts.InstrsPerProc = *instrs
	}
	if *warmup != 0 {
		opts.WarmupInstrs = *warmup
	}
	opts.Jobs = *jobs
	opts.CoherenceCheck = *cohCheck
	opts.SnapshotCheck = *snapCheck
	if *resources != "" {
		opts.Account = &harness.ResourceAccount{}
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *withTelemetry {
		if *metricsOut == "" {
			*metricsOut = filepath.Join(*out, "metrics.csv")
		}
		if *manifest == "" {
			*manifest = filepath.Join(*out, "manifest.json")
		}
	}
	if *metricsOut != "" || *traceJSON != "" || *manifest != "" {
		opts.Telemetry = &telemetry.Config{
			SampleEvery:  *sampleEvery,
			MetricsCSV:   *metricsOut,
			TraceJSON:    *traceJSON,
			ManifestJSON: *manifest,
		}
	}

	name := *only
	if a, ok := aliases[name]; ok {
		name = a
	}
	ran := false
	var completed []string
	for _, e := range experiments(opts) {
		if name != "" && e.name != name {
			continue
		}
		ran = true
		tab, err := harness.RunJob(e.job, opts)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(stdout, "reproduce: -timeout %s expired during %s; stopping.\n", *timeout, e.name)
				if len(completed) > 0 {
					fmt.Fprintf(stdout, "reproduce: partial results: %v completed and written to %s/\n", completed, *out)
				} else {
					fmt.Fprintf(stdout, "reproduce: partial results: no experiment completed; nothing written\n")
				}
			}
			return fmt.Errorf("%s: %w", e.name, err)
		}
		e.show(stdout, tab)
		fmt.Fprintln(stdout)
		if err := writeTable(*out, e.file, tab); err != nil {
			return err
		}
		completed = append(completed, e.name)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	if opts.Account != nil {
		// The snapshot uses the same JSON schema as the job service's
		// result "resources" block, so CLI and HTTP runs compare directly.
		buf, err := json.MarshalIndent(opts.Account.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*resources, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "reproduce: resource counters written to %s\n", *resources)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(f)
	}
	return nil
}

// showPairs draws the paired-run tables (SPEC table2, PARSEC): the
// normalized-time chart, the per-level delayed-access chart, the table with
// the paper's numbers beside the measured ones, and the geomean line.
func showPairs(w io.Writer, tab *stats.Table, normTitle, faTitle, tableTitle string) {
	norm := textplot.Chart{Title: normTitle, Baseline: 1.0}
	fa := textplot.Grouped{Title: faTitle, Series: []string{"L1I", "L1D", "LLC"}}
	side := stats.NewTable("workload", "normalized", "paper", "mpki-base", "paper", "mpki-tc", "paper")
	var norms, papers []float64
	for _, r := range tab.Rows {
		norm.Add(r[0], num(r, 1))
		fa.Add(r[0], num(r, 4), num(r, 5), num(r, 6))
		p, _ := timecache.PaperReference(r[0])
		side.Add(r[0], r[1], p.Normalized, r[2], p.MPKIBase, r[3], p.MPKITimeCache)
		norms = append(norms, num(r, 1))
		if p.Normalized > 0 {
			papers = append(papers, p.Normalized)
		}
	}
	fmt.Fprintln(w, norm.String())
	fmt.Fprintln(w, fa.String())
	fmt.Fprintln(w, tableTitle)
	fmt.Fprintln(w, side.String())
	gm, paper := stats.GeoMean(norms), stats.GeoMean(papers)
	fmt.Fprintf(w, "geomean normalized: measured %.4f (%.2f%% overhead), paper %.4f (%.2f%% overhead)\n",
		gm, stats.OverheadPct(gm), paper, stats.OverheadPct(paper))
}

// num reads a numeric cell of a rendered table row.
func num(row []string, col int) float64 {
	v, _ := strconv.ParseFloat(row[col], 64)
	return v
}

// writeTable writes tab as CSV into dir/name, with a markdown rendering
// next to it so results paste straight into reports.
func writeTable(dir, name string, tab *stats.Table) error {
	if err := os.WriteFile(filepath.Join(dir, name), []byte(tab.CSV()), 0o644); err != nil {
		return err
	}
	md := filepath.Join(dir, name[:len(name)-len(filepath.Ext(name))]+".md")
	return os.WriteFile(md, []byte(tab.Markdown()), 0o644)
}
