package timecache

import (
	"testing"
)

// assertJobDeterministic runs job sequentially and with 8 workers and
// asserts both renderings reproduce writes — CSV and markdown — are
// byte-identical: the pool may change when runs execute, never what they
// compute.
func assertJobDeterministic(t *testing.T, job Job) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	render := func(workers int) (string, string) {
		tab, err := RunJob(job, ExperimentOptions{InstrsPerProc: 20_000, WarmupInstrs: 20_000, Jobs: workers})
		if err != nil {
			t.Fatalf("jobs=%d: %v", workers, err)
		}
		return tab.CSV(), tab.Markdown()
	}
	seqCSV, seqMD := render(1)
	parCSV, parMD := render(8)
	if seqCSV != parCSV {
		t.Fatalf("CSV output differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seqCSV, parCSV)
	}
	if seqMD != parMD {
		t.Fatalf("markdown output differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seqMD, parMD)
	}
}

// TestParallelLLCSensitivityDeterminism covers the Fig. 10 LLC-size sweep.
func TestParallelLLCSensitivityDeterminism(t *testing.T) {
	assertJobDeterministic(t, Job{Experiment: "llc-sweep", LLCSizes: []int{512 << 10, 1 << 20}})
}

// TestParallelAblationDeterminism covers the trickiest case: the defense
// ablation normalizes every configuration against the baseline run, which
// sequential code computed first.
func TestParallelAblationDeterminism(t *testing.T) {
	assertJobDeterministic(t, Job{Experiment: "ablation", Pairs: []string{"2Xgobmk"}})
}

// TestParallelBookkeepingDeterminism covers the slice-length sweep.
func TestParallelBookkeepingDeterminism(t *testing.T) {
	assertJobDeterministic(t, Job{Experiment: "bookkeeping", SliceCycles: []uint64{50_000, 100_000}})
}
