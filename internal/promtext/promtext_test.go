package promtext

import (
	"strings"
	"testing"
)

const sample = `# HELP jobs_accepted_total Jobs accepted.
# TYPE jobs_accepted_total counter
jobs_accepted_total 42
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 3
# HELP job_duration_seconds Job wall time.
# TYPE job_duration_seconds summary
job_duration_seconds{quantile="0.5"} 0.25
job_duration_seconds{quantile="0.99"} 1.5
job_duration_seconds_sum 12.5
job_duration_seconds_count 42
# HELP weird_label Label escaping.
# TYPE weird_label gauge
weird_label{path="a\"b\\c\nd"} 1
`

func TestParseSample(t *testing.T) {
	m, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Families) != 4 {
		t.Fatalf("families = %d, want 4", len(m.Families))
	}
	if f := m.Family("jobs_accepted_total"); f == nil || f.Type != "counter" || f.Help != "Jobs accepted." {
		t.Fatalf("jobs_accepted_total family = %+v", f)
	}
	if s := m.Sample("queue_depth"); s == nil || s.Value != 3 {
		t.Fatalf("queue_depth = %+v", s)
	}
	// Summary children resolve to the parent family.
	if f := m.Family("job_duration_seconds_sum"); f == nil || f.Name != "job_duration_seconds" {
		t.Fatalf("sum family = %+v", f)
	}
	if s := m.Sample("job_duration_seconds", Label{"quantile", "0.99"}); s == nil || s.Value != 1.5 {
		t.Fatalf("p99 = %+v", s)
	}
	// Escapes decode.
	if s := m.Sample("weird_label", Label{"path", "a\"b\\c\nd"}); s == nil {
		t.Fatalf("escaped label did not round-trip; samples: %+v", m.Samples())
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":          "# HELP x h\nx 1\n",
		"no HELP":          "# TYPE x gauge\nx 1\n",
		"dup TYPE":         "# HELP x h\n# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"dup HELP":         "# HELP x h\n# HELP x h\n# TYPE x gauge\nx 1\n",
		"bad type":         "# HELP x h\n# TYPE x widget\nx 1\n",
		"bad value":        "# HELP x h\n# TYPE x gauge\nx banana\n",
		"bad name":         "# HELP 9x h\n# TYPE 9x gauge\n9x 1\n",
		"bad escape":       "# HELP x h\n# TYPE x gauge\nx{l=\"a\\qb\"} 1\n",
		"unquoted label":   "# HELP x h\n# TYPE x gauge\nx{l=v} 1\n",
		"unterminated":     "# HELP x h\n# TYPE x gauge\nx{l=\"v} 1\n",
		"type after data":  "# HELP x h\n# TYPE x gauge\nx 1\n# TYPE x gauge\n",
		"help without any": "# HELP x h\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, text)
		}
	}
}

func TestParseIgnoresOtherComments(t *testing.T) {
	m, err := Parse(strings.NewReader("# a stray comment\n# HELP x h\n# TYPE x gauge\nx 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Sample("x"); s == nil || s.Value != 1 {
		t.Fatalf("x = %+v", s)
	}
}

func TestSampleKeySortsLabels(t *testing.T) {
	a := Sample{Name: "m", Labels: []Label{{"b", "2"}, {"a", "1"}}}
	b := Sample{Name: "m", Labels: []Label{{"a", "1"}, {"b", "2"}}}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}
