// Leg sharding: every experiment a Job can dispatch is an index-addressed
// list of independent legs whose rendered rows concatenate positionally into
// the full table (the sweeps already run exactly this way internally, via
// runner.MapWorkersCtx). JobLegs / RunJobLeg / MergeLegTables expose that
// structure so a coordinator can schedule the legs of one job across many
// executors — worker goroutines, separate worker processes, or a mix — and
// reassemble a byte-identical result: stats.Table rows are pre-rendered
// strings, each leg's rows depend only on the canonical job and the leg
// index, and the merge is a positional concatenation.
//
// The leg unit per experiment:
//
//	table2       one SPEC pair            (one Table II row)
//	parsec       one PARSEC workload      (one row)
//	llc-sweep    one LLC size, all pairs  (one sweep point; geomean is
//	                                       within-size, so it shards cleanly)
//	ablation     one defense config       (re-runs the baseline per leg for
//	                                       normalization; row 0 IS the baseline)
//	bookkeeping  one slice length         (one row)
//	matrix       one defense row          (runs the attack columns and the
//	                                       perf baseline for that row)
//	security     the whole experiment     (four short sequential runs)
//
// Sharded ablation and matrix legs re-run their normalization baseline
// inside each leg, so a sharded run simulates more cycles than an unsharded
// one — the rendered bytes are identical (determinism), but the resource
// account is not. Callers that need exact resource equivalence with an
// unsharded run (TestResourceEquivalence pins table2) get it on the
// experiments whose legs are disjoint.
package harness

import (
	"fmt"

	"timecache/internal/stats"
	"timecache/internal/workload"
)

// JobLegs returns how many schedulable legs the job dispatches. The count is
// a pure function of the canonical job, so a coordinator and a worker that
// were handed the same job always agree on the leg address space.
func JobLegs(j Job) (int, error) {
	if err := j.Validate(); err != nil {
		return 0, err
	}
	j = j.Canonical()
	switch j.Experiment {
	case ExpTableII:
		pairs, _ := selectPairs(j.Pairs)
		return len(pairs), nil
	case ExpParsec:
		return len(j.Workloads), nil
	case ExpLLCSweep:
		return len(j.LLCSizes), nil
	case ExpAblation:
		return len(ablationConfigs()), nil
	case ExpBookkeeping:
		return len(j.SliceCycles), nil
	case ExpSecurity:
		return 1, nil
	case ExpMatrix:
		return len(j.Defenses), nil
	}
	return 0, fmt.Errorf("harness: unknown experiment %q", j.Experiment)
}

// RunJobLeg runs one leg of the job and renders just that leg's table slice
// (same header as the full table, the leg's rows only). The leg index
// addresses the canonical job: RunJobLeg(j, i) computes row block i of
// RunJob(j) byte-identically, regardless of which process or pool runs it.
func RunJobLeg(j Job, leg int, opts Options) (*stats.Table, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	j = j.Canonical()
	n, _ := JobLegs(j)
	if leg < 0 || leg >= n {
		return nil, fmt.Errorf("harness: job has %d legs, leg %d out of range", n, leg)
	}
	switch j.Experiment {
	case ExpTableII:
		pairs, _ := selectPairs(j.Pairs)
		return pairTable(runSpecPairs(pairs[leg:leg+1], opts))
	case ExpParsec:
		return pairTable(runParsecSet(j.Workloads[leg:leg+1], opts))
	case ExpLLCSweep:
		pairs, _ := selectPairs(j.Pairs)
		return llcSweepTable(j.LLCSizes[leg:leg+1], pairs, opts)
	case ExpAblation:
		pairs, _ := selectPairs(j.Pairs)
		return ablationRow(pairs[0], leg, opts)
	case ExpBookkeeping:
		return bookkeepingTable(j.SliceCycles[leg:leg+1], opts)
	case ExpSecurity:
		return securityTable(j.KeyBits, j.Seed, opts)
	case ExpMatrix:
		pairs, _ := selectPairs(j.Pairs)
		return matrixTable(j.Defenses[leg:leg+1], j.Attacks, pairs, j.AttackBits, j.Seed, opts)
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", j.Experiment)
}

// MergeLegTables reassembles a full result table from its per-leg slices in
// leg order. Headers must agree (they are a function of the experiment, so a
// mismatch means the parts came from different jobs); rows concatenate
// positionally, which is exactly how the unsharded runners order them.
func MergeLegTables(j Job, parts []*stats.Table) (*stats.Table, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("harness: merge of zero leg tables")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("harness: leg %d of %s has no table", i, j.Experiment)
		}
		if len(p.Header) != len(parts[0].Header) {
			return nil, fmt.Errorf("harness: leg %d header width %d != leg 0 width %d",
				i, len(p.Header), len(parts[0].Header))
		}
		for c, h := range p.Header {
			if h != parts[0].Header[c] {
				return nil, fmt.Errorf("harness: leg %d header %q != leg 0 header %q", i, h, parts[0].Header[c])
			}
		}
	}
	out := stats.NewTable(parts[0].Header...)
	for _, p := range parts {
		out.Rows = append(out.Rows, p.Rows...)
	}
	return out, nil
}

// ablationRow renders row idx of the defense ablation. Normalization needs
// the baseline cycles, so every non-baseline leg runs two machines (baseline
// + its defense); the rendered row is still byte-identical to the unsharded
// table because both runs are deterministic.
func ablationRow(pair workload.Pair, idx int, opts Options) (*stats.Table, error) {
	opts = opts.withDefaults()
	configs := ablationConfigs()
	cfg := configs[idx]
	pool := opts.newPool()
	run := func(c ablationConfig) (uint64, error) {
		if err := opts.ctx().Err(); err != nil {
			return 0, err
		}
		return runDefenseLeg(pool, pair, c.kind, c.name, opts)
	}
	baseline, err := run(configs[0])
	if err != nil {
		return nil, err
	}
	cycles := baseline
	if idx != 0 {
		if cycles, err = run(cfg); err != nil {
			return nil, err
		}
	}
	tab := stats.NewTable("defense", "normalized-time")
	tab.Add(cfg.name, stats.Normalized(cycles, baseline))
	return tab, nil
}
