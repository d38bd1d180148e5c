package stats

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMPKI(t *testing.T) {
	if !almost(MPKI(14, 1000), 14) {
		t.Error("14 events / 1k instr = 14 MPKI")
	}
	if !almost(MPKI(5, 2000), 2.5) {
		t.Error("5/2000 = 2.5 MPKI")
	}
	if MPKI(5, 0) != 0 {
		t.Error("zero instructions must not divide by zero")
	}
}

func TestNormalizedAndOverhead(t *testing.T) {
	n := Normalized(1013, 1000)
	if !almost(n, 1.013) {
		t.Errorf("normalized = %v", n)
	}
	if !almost(OverheadPct(n), 1.3000000000000042) && math.Abs(OverheadPct(n)-1.3) > 1e-9 {
		t.Errorf("overhead = %v", OverheadPct(n))
	}
	if Normalized(5, 0) != 0 {
		t.Error("zero baseline guarded")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{2, 8}), 4) {
		t.Error("geomean(2,8) = 4")
	}
	if !almost(GeoMean([]float64{1, 1, 1}), 1) {
		t.Error("geomean of ones is 1")
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean is 0")
	}
	if !almost(GeoMean([]float64{4, -1, 0}), 4) {
		t.Error("non-positive values skipped")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("workload", "overhead")
	tb.Add("2Xlbm", 1.0039)
	tb.Add("2Xleslie3d", 1.0751)
	s := tb.String()
	if !strings.Contains(s, "2Xleslie3d") || !strings.Contains(s, "1.0751") {
		t.Fatalf("table output missing data:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+sep+2 rows, got %d lines", len(lines))
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "workload,overhead\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
}

// Regression: cells containing commas, quotes, or newlines must be quoted
// per RFC 4180 or the file is corrupt (extra columns, broken rows).
func TestCSVQuoting(t *testing.T) {
	tb := NewTable("name", "note")
	tb.Add("a,b", `say "hi"`)
	tb.Add("line\nbreak", "plain")
	got := tb.CSV()
	want := "name,note\n" +
		`"a,b","say ""hi"""` + "\n" +
		"\"line\nbreak\",plain\n"
	if got != want {
		t.Fatalf("CSV quoting wrong:\ngot  %q\nwant %q", got, want)
	}
	// The encoding must round-trip through a standard CSV parser.
	recs, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil {
		t.Fatalf("stdlib csv cannot parse output: %v", err)
	}
	if len(recs) != 3 || recs[1][0] != "a,b" || recs[1][1] != `say "hi"` || recs[2][0] != "line\nbreak" {
		t.Fatalf("round-trip mismatch: %q", recs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if !almost(Percentile(xs, 0), 1) || !almost(Percentile(xs, 100), 5) {
		t.Error("extremes")
	}
	if !almost(Percentile(xs, 50), 3) {
		t.Error("median")
	}
	if !almost(Percentile(xs, 25), 2) {
		t.Error("p25")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty input")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Error("input mutated")
	}
}

func TestMarkdown(t *testing.T) {
	tb := NewTable("a", "b")
	tb.Add("x", 1.5)
	md := tb.Markdown()
	want := "| a | b |\n| --- | --- |\n| x | 1.5000 |\n"
	if md != want {
		t.Fatalf("markdown = %q, want %q", md, want)
	}
}
