package harness

import (
	"reflect"
	"testing"

	"timecache/internal/workload"
)

// TestPairLabelResolution pins the one place pair labels resolve: Table II
// labels, plus "2X<profile>" for any SPEC profile outside the list. Every
// experiment that takes pairs accepts and rejects the same labels, and the
// canonical form keeps an ad-hoc label as spelled.
func TestPairLabelResolution(t *testing.T) {
	pairExps := []string{ExpTableII, ExpLLCSweep, ExpAblation, ExpMatrix}
	for _, label := range []string{"2Xzeusmp", "2Xcactus"} {
		for _, exp := range pairExps {
			j := Job{Experiment: exp, Pairs: []string{label}}
			if err := j.Validate(); err != nil {
				t.Errorf("%s %q: %v", exp, label, err)
			}
			if got := j.Canonical().Pairs; !reflect.DeepEqual(got, []string{label}) {
				t.Errorf("%s %q: canonical pairs %v", exp, label, got)
			}
		}
	}
	pairs, err := selectPairs([]string{"2Xzeusmp", "2Xlbm"})
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.Pair{{Label: "2Xzeusmp", A: "zeusmp", B: "zeusmp"}, {Label: "2Xlbm", A: "lbm", B: "lbm"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("selectPairs = %+v, want %+v", pairs, want)
	}

	// A bare profile name is not a pair label, and "2X" only prefixes real
	// SPEC profiles.
	for _, label := range []string{"2Xnonsense", "nonsense", "zeusmp", "2X", "nope"} {
		for _, exp := range pairExps {
			if err := (Job{Experiment: exp, Pairs: []string{label}}).Validate(); err == nil {
				t.Errorf("%s accepted unknown pair %q", exp, label)
			}
		}
	}
}
