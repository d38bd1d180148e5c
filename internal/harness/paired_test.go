package harness

import (
	"slices"
	"testing"

	"timecache/internal/defense"
)

// TestPairedDefenseMatchesAblation: a table2 row defended by kind K measures
// the same pair of runs as the ablation's K row, so its normalized cell
// reads the same.
func TestPairedDefenseMatchesAblation(t *testing.T) {
	ablation, err := RunJob(Job{Experiment: ExpAblation, Pairs: []string{"2Xgobmk"}}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, kind := range defense.Kinds() {
		tab, err := RunJob(Job{Experiment: ExpTableII, Pairs: []string{"2Xgobmk"}, Defenses: []string{kind}}, smallOpts())
		if err != nil {
			t.Fatalf("table2 defended by %s: %v", kind, err)
		}
		if got, want := tab.Rows[0][1], ablation.Rows[i][1]; got != want {
			t.Errorf("table2 defended by %s: normalized %s, ablation row %q reads %s", kind, got, ablation.Rows[i][0], want)
		}
	}
}

// TestPairedDefaultIsTimeCache: naming TimeCache as the defended leg is the
// default job, with the same fingerprint and the same table bytes, on every
// paired experiment.
func TestPairedDefaultIsTimeCache(t *testing.T) {
	for _, j := range []Job{
		{Experiment: ExpTableII, Pairs: []string{"2Xnamd"}},
		{Experiment: ExpParsec, Workloads: []string{"blackscholes"}},
		{Experiment: ExpLLCSweep, Pairs: []string{"2Xnamd"}, LLCSizes: []int{512 << 10}},
	} {
		named := j
		named.Defenses = []string{defense.TimeCache}
		if a, b := j.Fingerprint(), named.Fingerprint(); a != b {
			t.Errorf("%s: fingerprint %s without a defense, %s naming timecache", j.Experiment, a, b)
		}
		if c := named.Canonical(); c.Defenses != nil {
			t.Errorf("%s: canonical Defenses = %v, want nil", j.Experiment, c.Defenses)
		}
		a, err := RunJob(j, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunJob(named, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if a.CSV() != b.CSV() {
			t.Errorf("%s: tables differ\n--- default ---\n%s--- timecache ---\n%s", j.Experiment, a.CSV(), b.CSV())
		}
	}
}

// TestPairedDefenseValidate: a paired experiment takes at most one
// registry kind; bookkeeping and security ignore Defenses.
func TestPairedDefenseValidate(t *testing.T) {
	for _, exp := range []string{ExpTableII, ExpParsec, ExpLLCSweep} {
		for _, ds := range [][]string{{defense.None, defense.TimeCache}, {"partitioned"}} {
			if err := (Job{Experiment: exp, Defenses: ds}).Validate(); err == nil {
				t.Errorf("%s with Defenses %v validated", exp, ds)
			}
		}
		if err := (Job{Experiment: exp, Defenses: []string{defense.FASE}}).Validate(); err != nil {
			t.Errorf("%s with Defenses [fase]: %v", exp, err)
		}
		if a, b := (Job{Experiment: exp}).Fingerprint(), (Job{Experiment: exp, Defenses: []string{defense.FASE}}).Fingerprint(); a == b {
			t.Errorf("%s: naming fase did not move the fingerprint", exp)
		}
	}
	for _, exp := range []string{ExpBookkeeping, ExpSecurity} {
		if a, b := (Job{Experiment: exp}).Fingerprint(), (Job{Experiment: exp, Defenses: []string{defense.FASE}}).Fingerprint(); a != b {
			t.Errorf("%s: Defenses moved the fingerprint", exp)
		}
	}
}

// TestPairedDefenseSpans: the defended leg runs under its kind's name.
func TestPairedDefenseSpans(t *testing.T) {
	spans := &spanLog{}
	opts := smallOpts()
	opts.Spans = spans
	if _, err := RunJob(Job{Experiment: ExpTableII, Pairs: []string{"2Xnamd"}, Defenses: []string{defense.FASE}}, opts); err != nil {
		t.Fatal(err)
	}
	got := slices.Clone(spans.names)
	slices.Sort(got)
	if want := []string{"2Xnamd/baseline", "2Xnamd/fase"}; !slices.Equal(got, want) {
		t.Errorf("spans = %v, want %v", got, want)
	}
}

// TestPairedLegsNoAllocs: deriving a row's legs from the job allocates
// nothing.
func TestPairedLegsNoAllocs(t *testing.T) {
	j := Job{Experiment: ExpTableII, Defenses: []string{defense.FASE}}
	var legs [2]ablationConfig
	if n := testing.AllocsPerRun(100, func() { legs = pairedLegs(defendedKind(j)) }); n != 0 {
		t.Errorf("pairedLegs allocates %v times per call", n)
	}
	if legs[1].name != defense.FASE || legs[0].kind != defense.None {
		t.Errorf("legs = %+v", legs)
	}
}
