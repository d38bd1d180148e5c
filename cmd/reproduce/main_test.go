package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"timecache/internal/harness"
)

// TestCSVEqualsJobTable pins the CLI to the one spec→table path: the CSV
// reproduce writes for an experiment is exactly harness.RunJob's table for
// the same job and options, byte for byte.
func TestCSVEqualsJobTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		job  harness.Job
		opts harness.Options
		file string
	}{
		{
			name: "fig10",
			args: []string{"-only", "fig10", "-instrs", "20000", "-warmup", "20000", "-j", "2"},
			job:  harness.Job{Experiment: harness.ExpLLCSweep},
			opts: harness.Options{InstrsPerProc: 20_000, WarmupInstrs: 20_000, Jobs: 2},
			file: "fig10_llc_sensitivity.csv",
		},
		{
			name: "security",
			args: []string{"-only", "security"},
			job:  harness.Job{Experiment: harness.ExpSecurity},
			opts: harness.Options{InstrsPerProc: 300_000, WarmupInstrs: 250_000},
			file: "security.csv",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "fig10" {
				t.Skip("multi-run sweep")
			}
			dir := t.TempDir()
			if err := run(append([]string{"-out", dir}, tc.args...), io.Discard); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			want, err := harness.RunJob(tc.job, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want.CSV() {
				t.Fatalf("%s differs from RunJob's table:\n--- cli ---\n%s--- job ---\n%s", tc.file, got, want.CSV())
			}
		})
	}
}

// TestUnknownExperiment: an unknown -only name is an error, not a no-op.
func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-only", "fig11"}, io.Discard); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
