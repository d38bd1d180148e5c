// Leg sharding: every experiment a Job can dispatch is an index-addressed
// list of independent legs whose rendered rows concatenate positionally into
// the full table. RunJob is exactly that: one fan-out over the legs, then
// MergeLegTables. JobLegs / RunJobLeg / MergeLegTables expose the same
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
//	ablation     one defense config       (runs the baseline per leg for
//	                                       normalization unless the job's
//	                                       RunMemo holds it; row 0 IS the
//	                                       baseline)
//	bookkeeping  one slice length         (one row)
//	matrix       one defense row          (runs the attack columns, then the
//	                                       none perf baseline, then its own
//	                                       perf runs)
//	security     the whole experiment     (four short attack runs)
//
// A leg runs its independent machine runs concurrently (eachRun), under one
// process-wide bound of GOMAXPROCS simulating runs, and a job's resource
// account is the sum of its legs' accounts however the legs and their runs
// are scheduled. Legs that share one RunMemo charge each
// distinct machine run once, to whichever leg simulated it.
package harness

import (
	"fmt"

	"timecache/internal/stats"
)

// JobLegs returns how many schedulable legs the job dispatches. The count is
// a pure function of the canonical job, so a coordinator and a worker that
// were handed the same job always agree on the leg address space.
func JobLegs(j Job) (int, error) {
	k, j, err := resolve(j)
	if err != nil {
		return 0, err
	}
	return k.legs(j), nil
}

// RunJobLeg runs one leg of the job on opts.newPool() and renders just that
// leg's table slice (same header as the full table, the leg's rows only).
// The leg index addresses the canonical job: RunJobLeg(j, i) computes row
// block i of RunJob(j) byte-identically, regardless of which process or pool
// runs it. It never fans out; opts.Jobs and opts.Progress are not read.
// Legs of one job that pass the same opts.Memo share its machine runs.
func RunJobLeg(j Job, leg int, opts Options) (*stats.Table, error) {
	k, j, err := resolve(j)
	if err != nil {
		return nil, err
	}
	if n := k.legs(j); leg < 0 || leg >= n {
		return nil, fmt.Errorf("harness: job has %d legs, leg %d out of range", n, leg)
	}
	opts = opts.withDefaults()
	return k.runLeg(j, leg, opts.newPool(), opts)
}

// MergeLegTables reassembles a full result table from its per-leg slices in
// leg order. Headers must agree (they are a function of the experiment, so a
// mismatch means the parts came from different jobs); rows concatenate
// positionally.
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
