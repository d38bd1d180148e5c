package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"timecache/internal/harness"
	"timecache/internal/stats"
	"timecache/internal/workload"
)

// refs are the correctness references every output is byte-compared with:
// the repository's golden tables (results/golden) and the benchmark's own
// expected tables (perfbench/expected) for the specs no golden covers.
// Seeded permutations of a golden spec (pair, defense or attack order) are
// compared with the golden table's rows and cells rearranged to match.
type refs struct {
	golden   map[string][]byte // by file stem, e.g. "table2_slice"
	expected map[string][]byte // by file stem
	table2   *stats.Table      // golden table2_slice, parsed
	matrix   *stats.Table      // golden matrix, parsed
}

// goldenOpts are the budgets results/golden was generated with, with every
// leg run cold: the benchmark's simulator workloads never fork a snapshot.
func goldenOpts() harness.Options {
	return harness.Options{InstrsPerProc: 60_000, WarmupInstrs: 40_000, Jobs: 1, Snapshot: harness.SnapshotOff}
}

// goldenAttackBits is the golden matrix's secret length.
const goldenAttackBits = 12

func loadRefs(root string) (*refs, error) {
	r := &refs{golden: map[string][]byte{}, expected: map[string][]byte{}}
	for _, stem := range []string{"table2_slice", "matrix"} {
		b, err := os.ReadFile(filepath.Join(root, "results", "golden", stem+".csv"))
		if err != nil {
			return nil, fmt.Errorf("golden reference: %w", err)
		}
		r.golden[stem] = b
	}
	for _, c := range serviceCatalog {
		if !c.hasExpected() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(root, "perfbench", "expected", c.ref+".csv"))
		if err != nil {
			return nil, fmt.Errorf("expected table (regenerate with --regen): %w", err)
		}
		r.expected[c.ref] = b
	}
	var err error
	if r.table2, err = parseTable(r.golden["table2_slice"]); err != nil {
		return nil, err
	}
	if r.matrix, err = parseTable(r.golden["matrix"]); err != nil {
		return nil, err
	}
	return r, nil
}

func parseTable(b []byte) (*stats.Table, error) {
	recs, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil || len(recs) == 0 {
		return nil, fmt.Errorf("parse reference table: %v", err)
	}
	return &stats.Table{Header: recs[0], Rows: recs[1:]}, nil
}

// rowOf returns the row whose first cell is key.
func rowOf(t *stats.Table, key string) ([]string, error) {
	for _, row := range t.Rows {
		if row[0] == key {
			return row, nil
		}
	}
	return nil, fmt.Errorf("reference has no row %q", key)
}

// table2 renders the golden Table II rows for pairs, in pairs' order.
func (r *refs) table2CSV(pairs []string) (string, error) {
	out := stats.NewTable(r.table2.Header...)
	for _, p := range pairs {
		row, err := rowOf(r.table2, p)
		if err != nil {
			return "", err
		}
		out.Rows = append(out.Rows, row)
	}
	return out.CSV(), nil
}

// matrixCSV renders the golden matrix rearranged to the given defense (row)
// and attack (column) order. The perf column is the default pair.
func (r *refs) matrixCSV(defenses, attacks []string) (string, error) {
	col := map[string]int{}
	for i, h := range r.matrix.Header {
		col[h] = i
	}
	header := []string{"defense"}
	for _, a := range attacks {
		header = append(header, "bits-"+a)
	}
	header = append(header, r.matrix.Header[len(r.matrix.Header)-1])
	out := stats.NewTable(header...)
	for _, d := range defenses {
		row, err := rowOf(r.matrix, d)
		if err != nil {
			return "", err
		}
		cells := make([]string, 0, len(header))
		for _, h := range header {
			i, ok := col[h]
			if !ok {
				return "", fmt.Errorf("golden matrix has no column %q", h)
			}
			cells = append(cells, row[i])
		}
		out.Rows = append(out.Rows, cells)
	}
	return out.CSV(), nil
}

// jobCSV returns the golden reference for a Table II or matrix job, rows
// (and matrix columns) in the job's order.
func (r *refs) jobCSV(j harness.Job) (string, error) {
	switch j.Experiment {
	case harness.ExpTableII:
		return r.table2CSV(j.Pairs)
	case harness.ExpMatrix:
		return r.matrixCSV(j.Defenses, j.Attacks)
	}
	return "", fmt.Errorf("no golden reference for %s jobs", j.Experiment)
}

// hasExpected reports whether c's reference is a perfbench/expected table
// (neither a golden file nor golden Table II rows).
func (c catalogSpec) hasExpected() bool {
	return c.golden == "" && c.job.Experiment != harness.ExpTableII
}

// serviceCSV returns the reference bytes for a service catalog entry.
func (r *refs) serviceCSV(c catalogSpec) (string, error) {
	switch {
	case c.golden != "":
		return string(r.golden[c.golden]), nil
	case c.job.Experiment == harness.ExpTableII:
		return r.table2CSV(c.job.Pairs)
	default:
		b, ok := r.expected[c.ref]
		if !ok {
			return "", fmt.Errorf("no expected table for %s", c.ref)
		}
		return string(b), nil
	}
}

// paperNorm is the paper's normalized execution time for a Table II pair.
func paperNorm(label string) (float64, bool) {
	v, ok := workload.PaperTableII[label]
	return v[0], ok
}

// paperErrs returns |normalized − paper| in percent for every row of a
// Table II-format table (first column the pair, second the normalized time).
func paperErrs(t *stats.Table) []float64 {
	var out []float64
	if len(t.Header) < 2 || t.Header[1] != "normalized" {
		return nil
	}
	for _, row := range t.Rows {
		if paper, ok := paperNorm(row[0]); ok {
			var v float64
			if _, err := fmt.Sscan(row[1], &v); err == nil {
				d := (v - paper) * 100
				if d < 0 {
					d = -d
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// regenExpected rewrites perfbench/expected from the current commit. Each
// table is rendered twice, once with every leg cold (SnapshotOff) and once
// forking warm snapshots under SnapshotCheck, and the two must be
// byte-identical before anything is written.
func regenExpected(root string) error {
	dir := filepath.Join(root, "perfbench", "expected")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range serviceCatalog {
		if !c.hasExpected() {
			continue
		}
		a, err := harness.RunJob(c.job, goldenOpts())
		if err != nil {
			return fmt.Errorf("%s cold: %w", c.ref, err)
		}
		checked := goldenOpts()
		checked.Snapshot, checked.SnapshotCheck = harness.SnapshotAuto, true
		b, err := harness.RunJob(c.job, checked)
		if err != nil {
			return fmt.Errorf("%s snapshot-check: %w", c.ref, err)
		}
		if a.CSV() != b.CSV() {
			return fmt.Errorf("%s: cold and snapshot-checked tables differ:\n%s---\n%s", c.ref, a.CSV(), b.CSV())
		}
		if err := os.WriteFile(filepath.Join(dir, c.ref+".csv"), []byte(a.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", filepath.Join("perfbench", "expected", c.ref+".csv"), len(a.Rows))
	}
	return nil
}

// checkCSV compares an output with its reference, reporting the first
// difference on standard error.
func checkCSV(what, got, want string) bool {
	if got == want {
		return true
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s output differs from reference\n--- want ---\n%s--- got ---\n%s",
		what, want, strings.TrimSuffix(got, "\n")+"\n")
	return false
}
