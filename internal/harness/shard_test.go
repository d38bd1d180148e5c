package harness

import (
	"testing"

	"timecache/internal/machine"
	"timecache/internal/stats"
)

// shardSpecs are small-budget jobs covering every experiment's leg shape.
func shardSpecs() map[string]Job {
	return map[string]Job{
		"table2": {Experiment: ExpTableII, Pairs: []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"}},
		"parsec": {Experiment: ExpParsec, Workloads: []string{"blackscholes", "swaptions"}},
		"llc-sweep": {Experiment: ExpLLCSweep, Pairs: []string{"2Xlbm", "2Xgobmk"},
			LLCSizes: []int{512 << 10, 1 << 20}},
		"ablation":    {Experiment: ExpAblation, Pairs: []string{"2Xlbm"}},
		"bookkeeping": {Experiment: ExpBookkeeping, SliceCycles: []uint64{100_000, 200_000}},
		"security":    {Experiment: ExpSecurity, KeyBits: 16, Seed: 7},
		"matrix": {Experiment: ExpMatrix, Pairs: []string{"2Xlbm"},
			Defenses: []string{"none", "timecache"}, Attacks: []string{"smt", "coherence"}, AttackBits: 8},
	}
}

// runSharded runs every leg of the job on its own fresh pool — the worst
// case for machine and snapshot sharing, matching a fleet of separate
// worker processes — and merges the slices positionally. The legs share
// one RunMemo, as the job service's in-process legs of one job do.
func runSharded(job Job, opts Options) (*stats.Table, error) {
	n, err := JobLegs(job)
	if err != nil {
		return nil, err
	}
	parts := make([]*stats.Table, n)
	memo := &RunMemo{}
	for leg := 0; leg < n; leg++ {
		o := opts
		o.Pool = machine.NewPool()
		o.Memo = memo
		if parts[leg], err = RunJobLeg(job, leg, o); err != nil {
			return nil, err
		}
	}
	return MergeLegTables(job, parts)
}

// TestShardEquivalence is the sharding seam's correctness anchor: for every
// experiment, running each leg independently (fresh pool per leg, as a
// distributed worker would) and merging positionally must render bytes
// identical to the unsharded RunJob. Under SnapshotOff every run is cold,
// so RunJob's resource account must also equal the sum of the legs'
// accounts: RunJob runs exactly the legs, nothing more or less.
func TestShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, job := range shardSpecs() {
		job := job
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []SnapshotMode{SnapshotAuto, SnapshotOff} {
				whole, legs := &ResourceAccount{}, &ResourceAccount{}
				opts := Options{InstrsPerProc: 20_000, WarmupInstrs: 10_000, Snapshot: mode}
				opts.Account = whole
				want, err := RunJob(job, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Account = legs
				merged, err := runSharded(job, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := merged.CSV(); got != want.CSV() {
					t.Errorf("snapshot mode %d: sharded result diverged from unsharded\n--- want ---\n%s--- got ---\n%s",
						mode, want.CSV(), got)
				}
				if merged.Markdown() != want.Markdown() {
					t.Errorf("snapshot mode %d: sharded markdown diverged from unsharded", mode)
				}
				if mode == SnapshotOff && whole.Snapshot() != legs.Snapshot() {
					t.Errorf("RunJob account %+v != sum of leg accounts %+v", whole.Snapshot(), legs.Snapshot())
				}
			}
		})
	}
}

// TestJobLegsCounts pins the leg unit per experiment.
func TestJobLegsCounts(t *testing.T) {
	for name, want := range map[string]int{
		"table2": 3, "parsec": 2, "llc-sweep": 2, "bookkeeping": 2, "security": 1, "matrix": 2,
	} {
		n, err := JobLegs(shardSpecs()[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != want {
			t.Errorf("JobLegs(%s) = %d, want %d", name, n, want)
		}
	}
	// Ablation's leg count is the defense registry size.
	n, err := JobLegs(shardSpecs()["ablation"])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ablationConfigs()) {
		t.Errorf("JobLegs(ablation) = %d, want %d", n, len(ablationConfigs()))
	}
	// Defaulted selections count their canonical set, same as RunJob runs.
	n, err = JobLegs(Job{Experiment: ExpTableII})
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Errorf("JobLegs(table2, all pairs) = %d, want 24", n)
	}
}

// TestMergeLegTablesRejects: merging missing or mismatched parts errors
// instead of silently producing a corrupt table.
func TestMergeLegTablesRejects(t *testing.T) {
	job := Job{Experiment: ExpTableII}
	if _, err := MergeLegTables(job, nil); err == nil {
		t.Error("merge of zero parts succeeded")
	}
	a := stats.NewTable("workload", "normalized")
	b := stats.NewTable("workload", "different")
	if _, err := MergeLegTables(job, []*stats.Table{a, nil}); err == nil {
		t.Error("merge with nil part succeeded")
	}
	if _, err := MergeLegTables(job, []*stats.Table{a, b}); err == nil {
		t.Error("merge with mismatched headers succeeded")
	}
}

// TestRunJobLegRange: out-of-range legs are rejected.
func TestRunJobLegRange(t *testing.T) {
	job := Job{Experiment: ExpTableII, Pairs: []string{"2Xlbm"}}
	if _, err := RunJobLeg(job, 1, Options{InstrsPerProc: 1000, WarmupInstrs: 500}); err == nil {
		t.Error("leg 1 of a 1-leg job succeeded")
	}
	if _, err := RunJobLeg(job, -1, Options{}); err == nil {
		t.Error("leg -1 succeeded")
	}
}
