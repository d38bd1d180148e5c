// Job dispatch: a declarative description of one experiment, attack, or
// sweep run, decoupled from any CLI flag parsing, plus the renderers that
// turn results into tables. RunJob (and RunJobLeg, its sharded form) is the
// only way to run an experiment: cmd/reproduce, the HTTP job service
// (internal/server), the golden tests, and the benchmark all funnel through
// it, so a job submitted over the network is byte-identical to one run
// in-process or written by the CLI.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"timecache/internal/attack"
	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

// Experiment names Dispatchable job kinds.
const (
	ExpTableII     = "table2"      // SPEC pairs: Fig. 7/8, Table II rows
	ExpParsec      = "parsec"      // PARSEC workloads: Fig. 9a/9b
	ExpLLCSweep    = "llc-sweep"   // Fig. 10 LLC-size sensitivity
	ExpAblation    = "ablation"    // defense comparison on one pair
	ExpBookkeeping = "bookkeeping" // §VI-D slice-length scaling
	ExpSecurity    = "security"    // §VI-A microbenchmark + RSA attack
	ExpMatrix      = "matrix"      // defense×attack leakage/overhead grid
)

// Experiments lists the dispatchable experiment names, sorted.
func Experiments() []string {
	out := []string{ExpTableII, ExpParsec, ExpLLCSweep, ExpAblation, ExpBookkeeping, ExpSecurity, ExpMatrix}
	sort.Strings(out)
	return out
}

// Job describes one dispatchable run. Zero-valued selection fields fall back
// to each experiment's full default set, so {Experiment: "table2"} runs the
// whole SPEC half of Table II while {Experiment: "table2", Pairs: ["2Xlbm"]}
// runs one row.
type Job struct {
	// Experiment is one of the Exp* names.
	Experiment string
	// Pairs selects Table II / sweep / ablation workload pairs by label
	// ("2Xlbm", "leslie+gobmk", or "2X<profile>" for any SPEC profile, e.g.
	// "2Xzeusmp"). Empty selects the experiment's default:
	// every pair for table2, the same-benchmark pairs for llc-sweep, and
	// 2Xgobmk for ablation (which takes exactly one pair).
	Pairs []string
	// Workloads selects PARSEC workloads by name. Empty selects all.
	Workloads []string
	// LLCSizes are the llc-sweep points in bytes. Empty selects the Fig. 10
	// default sweep (512 KB – 4 MB).
	LLCSizes []int
	// SliceCycles are the bookkeeping-scaling slice lengths. Empty selects
	// the default ladder (100k – 800k).
	SliceCycles []uint64
	// KeyBits is the security experiment's RSA key length (default 64).
	KeyBits int
	// Seed seeds the security and matrix experiments' secret generation
	// (default 12345).
	Seed uint64
	// Defenses selects the matrix experiment's rows by registry kind
	// (defense.Kinds). Empty selects every registered defense.
	Defenses []string
	// Attacks selects the matrix experiment's leakage columns
	// (MatrixAttacks). Empty selects the full attack corpus.
	Attacks []string
	// AttackBits is the secret length each matrix attack transmits
	// (default 32).
	AttackBits int
}

// Validate checks the job before it is queued: the experiment must exist and
// every named pair/workload must resolve. It is intentionally strict so the
// job service can reject bad specs with a 400 instead of failing at run time.
func (j Job) Validate() error {
	switch j.Experiment {
	case ExpTableII, ExpLLCSweep:
		_, err := selectPairs(j.Pairs)
		return err
	case ExpAblation:
		if _, err := selectPairs(j.Pairs); err != nil {
			return err
		}
		if len(j.Pairs) > 1 {
			// Report the requested count, not the resolved one: with empty
			// labels selectPairs resolves to the full default set, and the
			// resolved count would misstate what the client actually asked
			// for.
			return fmt.Errorf("harness: ablation takes exactly one pair, got %d", len(j.Pairs))
		}
		return nil
	case ExpParsec:
		for _, name := range j.Workloads {
			if _, err := workload.Parsec(name); err != nil {
				return err
			}
		}
		return nil
	case ExpBookkeeping, ExpSecurity:
		return nil
	case ExpMatrix:
		if _, err := selectPairs(j.Pairs); err != nil {
			return err
		}
		for _, d := range j.Defenses {
			if !defense.Valid(d) {
				return fmt.Errorf("harness: unknown defense %q (want one of %v)", d, defense.Kinds())
			}
		}
		for _, a := range j.Attacks {
			if matrixAttackByName(a) == nil {
				return fmt.Errorf("harness: unknown attack %q (want one of %v)", a, MatrixAttacks())
			}
		}
		if j.AttackBits < 0 {
			return fmt.Errorf("harness: matrix attack bits must be non-negative, got %d", j.AttackBits)
		}
		return nil
	case "":
		return fmt.Errorf("harness: job has no experiment (want one of %v)", Experiments())
	default:
		return fmt.Errorf("harness: unknown experiment %q (want one of %v)", j.Experiment, Experiments())
	}
}

// selectPairs resolves pair labels, preserving request order: a Table II
// label selects that pair, and "2X<profile>" outside the list selects an
// ad-hoc same-benchmark pair of any SPEC profile. Empty labels select every
// Table II pair. The lookup is a linear scan over the 24-entry list — it
// sits on the fingerprint/admission path, where a map would cost an
// allocation per call for no measurable speedup.
func selectPairs(labels []string) ([]workload.Pair, error) {
	all := workload.SpecPairs()
	if len(labels) == 0 {
		return all, nil
	}
	out := make([]workload.Pair, 0, len(labels))
lookup:
	for _, l := range labels {
		for _, p := range all {
			if p.Label == l {
				out = append(out, p)
				continue lookup
			}
		}
		if name, ok := strings.CutPrefix(l, "2X"); ok {
			if _, err := workload.Spec(name); err == nil {
				out = append(out, workload.Pair{Label: l, A: name, B: name})
				continue
			}
		}
		return nil, fmt.Errorf("harness: unknown workload pair %q", l)
	}
	return out, nil
}

// RunJob validates and runs a job, returning its rendered result table. The
// run obeys opts.Ctx (cancellation, deadlines), draws machines from
// opts.Pool when set, and reports opts.Progress after each completed leg.
//
// The job is canonicalized first (Canonical is the single source of truth
// for every defaulted selection), so the result depends only on the
// canonical form — which is exactly what Fingerprint hashes and what the
// result cache in front of the job service keys on.
func RunJob(j Job, opts Options) (*stats.Table, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	j = j.Canonical()
	switch j.Experiment {
	case ExpTableII:
		pairs, _ := selectPairs(j.Pairs)
		return pairTable(runSpecPairs(pairs, opts))
	case ExpParsec:
		return pairTable(runParsecSet(j.Workloads, opts))
	case ExpLLCSweep:
		pairs, _ := selectPairs(j.Pairs)
		return llcSweepTable(j.LLCSizes, pairs, opts)
	case ExpAblation:
		pairs, _ := selectPairs(j.Pairs)
		return ablationTable(pairs[0], opts)
	case ExpBookkeeping:
		return bookkeepingTable(j.SliceCycles, opts)
	case ExpSecurity:
		return securityTable(j.KeyBits, j.Seed, opts)
	case ExpMatrix:
		pairs, _ := selectPairs(j.Pairs)
		return matrixTable(j.Defenses, j.Attacks, pairs, j.AttackBits, j.Seed, opts)
	}
	// Unreachable: Validate rejected everything else.
	return nil, fmt.Errorf("harness: unknown experiment %q", j.Experiment)
}

func samePairs(pairs []workload.Pair) []workload.Pair {
	var out []workload.Pair
	for _, p := range pairs {
		if p.A == p.B {
			out = append(out, p)
		}
	}
	return out
}

// pairTable renders paired-run rows — the SPEC pairs of table2 and the
// PARSEC workloads alike — in the golden Table II slice format
// (results/golden/table2_slice.csv): one row per workload with normalized
// time, LLC MPKI under both modes, and per-level first-access MPKI. It takes
// the runner's error so call sites can chain it directly.
func pairTable(rows []pairResult, err error) (*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("workload", "normalized", "mpki-base", "mpki-tc", "fa-l1i", "fa-l1d", "fa-llc")
	for _, r := range rows {
		tab.Add(r.Label, r.Normalized, r.MPKIBase, r.MPKITC,
			r.FirstAccess.L1I, r.FirstAccess.L1D, r.FirstAccess.LLC)
	}
	return tab, nil
}

// llcSweepTable runs the Fig. 10 sweep over the given sizes and pairs and
// renders it in the golden sweep format (results/golden/llc_sweep.csv).
func llcSweepTable(sizes []int, pairs []workload.Pair, opts Options) (*stats.Table, error) {
	pts, err := runLLCSensitivity(sizes, pairs, opts)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("llc", "geomean-normalized", "overhead-pct")
	for _, p := range pts {
		tab.Add(fmt.Sprintf("%dKB", p.LLCSize>>10), p.GeoMeanNorm, p.OverheadPct)
	}
	return tab, nil
}

// ablationTable runs the defense ablation on one pair: one normalized-time
// row per registry kind.
func ablationTable(pair workload.Pair, opts Options) (*stats.Table, error) {
	rows, err := runDefenseAblation(pair, opts)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("defense", "normalized-time")
	for _, r := range rows {
		tab.Add(r.Defense, r.Normalized)
	}
	return tab, nil
}

// bookkeepingTable runs the §VI-D slice-length scaling on 2Xnamd: the
// s-bit bookkeeping share and total overhead per slice length.
func bookkeepingTable(slices []uint64, opts Options) (*stats.Table, error) {
	pts, err := runBookkeepingScaling(workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}, slices, opts)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("slice-cycles", "bookkeeping-pct", "total-overhead-pct")
	for _, p := range pts {
		tab.Add(fmt.Sprintf("%d", p.SliceCycles), p.BookkeepingPct, p.OverheadPct)
	}
	return tab, nil
}

// securityTable runs the §VI-A security evaluation (microbenchmark and RSA
// flush+reload under baseline and TimeCache). The four runs are short and
// sequential; Progress is reported after each.
func securityTable(keyBits int, seed uint64, opts Options) (*stats.Table, error) {
	opts = opts.withDefaults()
	tab := stats.NewTable("experiment", "mode", "result")
	modes := []cache.SecMode{cache.SecOff, cache.SecTimeCache}
	total := 2 * len(modes)
	done := 0
	step := func() {
		done++
		if opts.Progress != nil {
			opts.Progress(done, total)
		}
	}
	// The attack scenarios own their machines internally, so these legs are
	// accounted by count and span only (no kernel counters to read).
	leg := func(name string, start time.Time) {
		opts.Account.AddLeg()
		if opts.Spans != nil {
			opts.Spans.Span(name, "leg", start, opts.wallNow(), nil)
		}
	}
	for _, mode := range modes {
		if err := opts.ctx().Err(); err != nil {
			return nil, err
		}
		start := opts.legStart()
		mb, err := attack.RunMicrobenchmark(mode)
		if err != nil {
			return nil, err
		}
		leg("microbenchmark/"+mode.String(), start)
		tab.Add("microbenchmark (§VI-A1)", mode.String(),
			fmt.Sprintf("%d/%d lines hit", mb.Hits, mb.Lines))
		step()
	}
	for _, mode := range modes {
		if err := opts.ctx().Err(); err != nil {
			return nil, err
		}
		start := opts.legStart()
		rsa, err := attack.RunRSA(mode, keyBits, seed)
		if err != nil {
			return nil, err
		}
		leg("rsa/"+mode.String(), start)
		tab.Add("RSA flush+reload (§VI-A2)", mode.String(),
			fmt.Sprintf("%.0f%% of key bits, %d hits, victim correct=%v",
				rsa.Accuracy*100, rsa.Hits, rsa.VictimCorrect))
		step()
	}
	return tab, nil
}
