package timecache

import (
	"timecache/internal/harness"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

// Job describes one experiment run: Experiment names it ("table2",
// "parsec", "llc-sweep", "ablation", "bookkeeping", "security", "matrix"),
// and the zero-valued selection fields fall back to the experiment's full
// default set, so Job{Experiment: "table2"} is the whole SPEC half of Table
// II and Job{Experiment: "table2", Pairs: []string{"2Xlbm"}} is one row.
type Job = harness.Job

// ExperimentOptions scales and instruments a job run: instruction budgets,
// LLC size, parallelism (-j), cancellation, resource accounting, and
// snapshot/fork reuse. The zero value uses defaults sized for seconds-scale
// runs.
type ExperimentOptions = harness.Options

// Table is a job's rendered result: a header plus pre-formatted rows, with
// CSV, Markdown, and aligned-text renderings.
type Table = stats.Table

// RunJob runs one experiment job and returns its result table. This is the
// only path from a job spec to a table: cmd/reproduce, the HTTP job
// service, and the golden tests all produce their bytes here.
func RunJob(j Job, opts ExperimentOptions) (*Table, error) {
	return harness.RunJob(j, opts)
}

// PaperRow is the paper's Table II measurement for one workload.
type PaperRow struct {
	// Normalized is TimeCache execution time over baseline (Fig. 7/9a).
	Normalized float64
	// MPKIBase and MPKITimeCache are the LLC misses per kilo-instruction
	// under the baseline and under TimeCache.
	MPKIBase, MPKITimeCache float64
}

// PaperReference returns the paper's Table II numbers for a SPEC pair label
// ("2Xlbm", "leslie+gobmk") or a PARSEC workload name, and false when the
// paper does not report the workload.
func PaperReference(workloadLabel string) (PaperRow, bool) {
	p, ok := workload.PaperTableII[workloadLabel]
	if !ok {
		p, ok = workload.PaperParsec[workloadLabel]
	}
	return PaperRow{Normalized: p[0], MPKIBase: p[1], MPKITimeCache: p[2]}, ok
}
