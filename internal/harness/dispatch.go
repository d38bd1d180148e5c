// Job dispatch: a declarative description of one experiment, attack, or
// sweep run, decoupled from any CLI flag parsing, and the registry of
// experiment kinds that runs it. RunJob (and RunJobLeg, its sharded form) is
// the only way to run an experiment: cmd/reproduce, the HTTP job service
// (internal/server), the golden tests, and the benchmark all funnel through
// it, so a job submitted over the network is byte-identical to one run
// in-process or written by the CLI.
//
// Every per-experiment decision lives in one entry of kinds: validation,
// defaults (Canonical), the leg count, and how one leg runs and renders its
// rows. The public entry points are lookups in that table, and RunJob is a
// single fan-out over the legs followed by MergeLegTables — the same legs
// the job service and the benchmark schedule one at a time.
package harness

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/runner"
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

// kind is one experiment's registry entry.
type kind struct {
	// validate checks the experiment-specific fields (nil: nothing to
	// check beyond the experiment name).
	validate func(Job) error
	// canonical resolves the defaults and drops the ignored fields (see
	// Canonical).
	canonical func(Job) Job
	// legs is the leg count of a canonical job.
	legs func(Job) int
	// runLeg runs one leg of a canonical job — its independent machine
	// runs concurrently on pool (see eachRun) — and renders that leg's rows
	// under the experiment's full header.
	runLeg func(j Job, leg int, pool *machine.Pool, opts Options) (*stats.Table, error)
}

// kinds is the experiment registry, keyed by Exp* name.
var kinds = map[string]kind{
	ExpTableII: {
		validate:  validatePairs,
		canonical: func(j Job) Job { return Job{Experiment: ExpTableII, Pairs: orDefault(j.Pairs, specPairLabels)} },
		legs:      func(j Job) int { return len(j.Pairs) },
		runLeg: func(j Job, leg int, pool *machine.Pool, opts Options) (*stats.Table, error) {
			pair, err := pairAt(j.Pairs, leg)
			if err != nil {
				return nil, err
			}
			return pairTable(runSpecPair(pool, pair, opts))
		},
	},
	ExpParsec: {
		validate: func(j Job) error {
			for _, name := range j.Workloads {
				if _, err := workload.Parsec(name); err != nil {
					return err
				}
			}
			return nil
		},
		canonical: func(j Job) Job {
			return Job{Experiment: ExpParsec, Workloads: orDefault(j.Workloads, workload.ParsecNames)}
		},
		legs: func(j Job) int { return len(j.Workloads) },
		runLeg: func(j Job, leg int, pool *machine.Pool, opts Options) (*stats.Table, error) {
			return pairTable(runParsec(pool, j.Workloads[leg], opts))
		},
	},
	ExpLLCSweep: {
		validate: validatePairs,
		canonical: func(j Job) Job {
			return Job{
				Experiment: ExpLLCSweep,
				// Fig. 10 default: the same-benchmark pairs only.
				Pairs:    orDefault(j.Pairs, func() []string { return pairLabels(samePairs(workload.SpecPairs())) }),
				LLCSizes: orDefault(j.LLCSizes, defaultLLCSizes),
			}
		},
		legs:   func(j Job) int { return len(j.LLCSizes) },
		runLeg: llcSweepLeg,
	},
	ExpAblation: {
		validate: func(j Job) error {
			if err := validatePairs(j); err != nil {
				return err
			}
			if len(j.Pairs) > 1 {
				// Report the requested count, not the resolved one: with
				// empty labels selectPairs resolves to the full default
				// set, which would misstate what the client asked for.
				return fmt.Errorf("harness: ablation takes exactly one pair, got %d", len(j.Pairs))
			}
			return nil
		},
		canonical: func(j Job) Job { return Job{Experiment: ExpAblation, Pairs: orDefault(j.Pairs, defaultPerfPairs)} },
		legs:      func(Job) int { return len(ablationConfigs()) },
		runLeg:    ablationLeg,
	},
	ExpBookkeeping: {
		canonical: func(j Job) Job {
			return Job{Experiment: ExpBookkeeping, SliceCycles: orDefault(j.SliceCycles, defaultSliceLadder)}
		},
		legs:   func(j Job) int { return len(j.SliceCycles) },
		runLeg: bookkeepingLeg,
	},
	ExpSecurity: {
		canonical: func(j Job) Job {
			return Job{Experiment: ExpSecurity, KeyBits: cmp.Or(j.KeyBits, defaultKeyBits), Seed: cmp.Or(j.Seed, defaultSeed)}
		},
		legs:   func(Job) int { return 1 },
		runLeg: securityLeg,
	},
	ExpMatrix: {
		validate: func(j Job) error {
			if err := validatePairs(j); err != nil {
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
		},
		canonical: func(j Job) Job {
			return Job{
				Experiment: ExpMatrix,
				Pairs:      orDefault(j.Pairs, defaultPerfPairs),
				Defenses:   orDefault(j.Defenses, defense.Kinds),
				Attacks:    orDefault(j.Attacks, MatrixAttacks),
				AttackBits: cmp.Or(j.AttackBits, defaultAttackBits),
				Seed:       cmp.Or(j.Seed, defaultSeed),
			}
		},
		legs:   func(j Job) int { return len(j.Defenses) },
		runLeg: matrixLeg,
	},
}

// Experiments lists the dispatchable experiment names, sorted.
func Experiments() []string {
	out := make([]string, 0, len(kinds))
	for name := range kinds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Validate checks the job before it is queued: the experiment must exist and
// every named pair/workload must resolve. It is intentionally strict so the
// job service can reject bad specs with a 400 instead of failing at run time.
func (j Job) Validate() error {
	k, ok := kinds[j.Experiment]
	switch {
	case j.Experiment == "":
		return fmt.Errorf("harness: job has no experiment (want one of %v)", Experiments())
	case !ok:
		return fmt.Errorf("harness: unknown experiment %q (want one of %v)", j.Experiment, Experiments())
	case k.validate == nil:
		return nil
	}
	return k.validate(j)
}

// resolve validates the job and returns its kind and canonical form.
func resolve(j Job) (kind, Job, error) {
	if err := j.Validate(); err != nil {
		return kind{}, Job{}, err
	}
	k := kinds[j.Experiment]
	return k, k.canonical(j), nil
}

// RunJob validates and runs a job, returning its rendered result table. The
// legs fan out across opts.Jobs workers, each with its own machine pool
// (or the shared opts.Pool), and merge positionally; opts.Progress is
// reported once per completed leg and opts.Ctx bounds every run. The
// workers share one RunMemo (opts.Memo, or a fresh one), so a machine run
// that several legs need — the ablation's and the matrix's baseline — is
// simulated once.
//
// The job is canonicalized first (Canonical is the single source of truth
// for every defaulted selection), so the result depends only on the
// canonical form — which is exactly what Fingerprint hashes and what the
// result cache in front of the job service keys on.
func RunJob(j Job, opts Options) (*stats.Table, error) {
	k, j, err := resolve(j)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.Memo == nil {
		opts.Memo = &RunMemo{}
	}
	parts, err := runner.MapWorkersCtx(opts.ctx(), k.legs(j),
		runner.Options{Workers: opts.Jobs, Progress: opts.Progress}, opts.newPool,
		func(pool *machine.Pool, leg int) (*stats.Table, error) { return k.runLeg(j, leg, pool, opts) })
	if err != nil {
		return nil, err
	}
	return MergeLegTables(j, parts)
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

// validatePairs checks that every pair label resolves.
func validatePairs(j Job) error {
	_, err := selectPairs(j.Pairs)
	return err
}

// pairAt resolves the i-th pair label.
func pairAt(labels []string, i int) (workload.Pair, error) {
	pairs, err := selectPairs(labels[i : i+1])
	if err != nil {
		return workload.Pair{}, err
	}
	return pairs[0], nil
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

// pairTable renders one paired-run row — a SPEC pair of table2 or a PARSEC
// workload alike — in the golden Table II slice format
// (results/golden/table2_slice.csv): normalized time, LLC MPKI under both
// modes, and per-level first-access MPKI. It takes the runner's error so
// call sites can chain it directly.
func pairTable(r pairResult, err error) (*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("workload", "normalized", "mpki-base", "mpki-tc", "fa-l1i", "fa-l1d", "fa-llc")
	tab.Add(r.Label, r.Normalized, r.MPKIBase, r.MPKITC,
		r.FirstAccess.L1I, r.FirstAccess.L1D, r.FirstAccess.LLC)
	return tab, nil
}

// llcSweepLeg renders one Fig. 10 point (results/golden/llc_sweep.csv):
// every pair at one LLC size, reduced to the geometric-mean normalized time.
func llcSweepLeg(j Job, leg int, pool *machine.Pool, opts Options) (*stats.Table, error) {
	pairs, err := selectPairs(j.Pairs)
	if err != nil {
		return nil, err
	}
	opts.LLCSize = j.LLCSizes[leg]
	norms, err := eachRun(opts, len(pairs), func(o Options, i int) (float64, error) {
		r, err := runSpecPair(pool, pairs[i], o)
		return r.Normalized, err
	})
	if err != nil {
		return nil, err
	}
	gm := stats.GeoMean(norms)
	tab := stats.NewTable("llc", "geomean-normalized", "overhead-pct")
	tab.Add(fmt.Sprintf("%dKB", opts.LLCSize>>10), gm, stats.OverheadPct(gm))
	return tab, nil
}

// ablationLeg renders one row of the defense ablation: the pair under one
// registry kind, normalized against the baseline. Every leg asks for the
// baseline run first (leg 0 is the baseline itself), so a leg needs nothing
// from its siblings; legs that share the job's RunMemo simulate it once.
func ablationLeg(j Job, leg int, pool *machine.Pool, opts Options) (*stats.Table, error) {
	pair, err := pairAt(j.Pairs, 0)
	if err != nil {
		return nil, err
	}
	configs := ablationConfigs()
	runs := []ablationConfig{configs[0]}
	if leg != 0 {
		runs = append(runs, configs[leg])
	}
	cycles, err := eachRun(opts, len(runs), func(o Options, i int) (uint64, error) {
		return runDefense(pool, pair, runs[i].kind, runs[i].name, o)
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("defense", "normalized-time")
	tab.Add(configs[leg].name, stats.Normalized(cycles[len(cycles)-1], cycles[0]))
	return tab, nil
}

// bookkeepingPair is the §VI-D scaling workload.
var bookkeepingPair = workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}

// bookkeepingLeg renders one §VI-D point: the fixed per-switch DMA cost
// (1.08 µs = 2160 cycles at 2 GHz) as a share of execution time at one
// slice length, which shrinks toward the paper's ~0.02% as the slice grows
// toward realistic 1–10 ms scheduler quanta.
func bookkeepingLeg(j Job, leg int, pool *machine.Pool, opts Options) (*stats.Table, error) {
	opts.SliceCycles = j.SliceCycles[leg]
	r, err := runSpecPair(pool, bookkeepingPair, opts)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("slice-cycles", "bookkeeping-pct", "total-overhead-pct")
	tab.Add(fmt.Sprintf("%d", opts.SliceCycles), r.BookkeepingPct, stats.OverheadPct(r.Normalized))
	return tab, nil
}

// securityLeg runs the §VI-A security evaluation (microbenchmark and RSA
// flush+reload under baseline and TimeCache): four short concurrent runs,
// one table row each.
func securityLeg(j Job, _ int, _ *machine.Pool, opts Options) (*stats.Table, error) {
	experiments := []struct {
		row, span string
		run       func(cfg machine.Config) (string, error)
	}{
		{"microbenchmark (§VI-A1)", "microbenchmark", func(cfg machine.Config) (string, error) {
			mb, err := attack.RunMicrobenchmark(cfg)
			return fmt.Sprintf("%d/%d lines hit", mb.Hits, mb.Lines), err
		}},
		{"RSA flush+reload (§VI-A2)", "rsa", func(cfg machine.Config) (string, error) {
			rsa, err := attack.RunRSAConfig(cfg, j.KeyBits, j.Seed)
			return fmt.Sprintf("%.0f%% of key bits, %d hits, victim correct=%v",
				rsa.Accuracy*100, rsa.Hits, rsa.VictimCorrect), err
		}},
	}
	n := len(pairedLegs)
	results, err := eachRun(opts, len(experiments)*n, func(o Options, i int) (string, error) {
		e, leg := experiments[i/n], pairedLegs[i%n]
		return withSlot(o, func() (string, error) {
			start := o.legStart()
			r, err := e.run(machine.Config{Defense: leg.kind})
			if err != nil {
				return "", err
			}
			o.finishLeg(e.span+"/"+leg.name, start, nil)
			return r, nil
		})
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("experiment", "mode", "result")
	for i, r := range results {
		tab.Add(experiments[i/n].row, pairedLegs[i%n].name, r)
	}
	return tab, nil
}
