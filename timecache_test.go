package timecache

import (
	"strconv"
	"strings"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	s, err := New(Config{Mode: TimeCache})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Caches) != 3 { // l1i0, l1d0, llc
		t.Fatalf("expected 3 caches, got %d", len(st.Caches))
	}
}

func TestLoadAsmAndRun(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.LoadAsm(`
		movi r1, 6
		movi r2, 7
		mul  r1, r1, r2
		sys  4        ; print r1
		sys  0        ; exit r1
	`, LoadOptions{Name: "six-by-seven"})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1_000_000)
	if !p.Exited() {
		t.Fatal("program did not exit")
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if p.ExitCode() != 42 {
		t.Fatalf("exit code %d, want 42", p.ExitCode())
	}
	if out := p.Output(); len(out) != 1 || out[0] != 42 {
		t.Fatalf("output %v, want [42]", out)
	}
	if p.Stats().Instructions == 0 {
		t.Fatal("no instructions accounted")
	}
}

func TestAsmErrorSurface(t *testing.T) {
	s, _ := New(Config{})
	if _, err := s.LoadAsm("bogus r1", LoadOptions{}); err == nil {
		t.Fatal("assembler errors must surface")
	}
}

func TestSharedTextFirstAccess(t *testing.T) {
	// Two copies of one looping binary sharing text: TimeCache must record
	// first accesses; the baseline never does.
	src := `
		movi r1, 0
		movi r2, 50000
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`
	for _, mode := range []Mode{Baseline, TimeCache} {
		s, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.LoadAsm(src, LoadOptions{ShareKey: "loop"}); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(100_000_000)
		if !s.AllExited() {
			t.Fatal("did not finish")
		}
		var fa uint64
		for _, c := range s.Stats().Caches {
			fa += c.FirstAccess
		}
		if mode == Baseline && fa != 0 {
			t.Fatalf("baseline recorded %d first accesses", fa)
		}
		if mode == TimeCache && fa == 0 {
			t.Fatal("TimeCache recorded no first accesses for shared text")
		}
		if mode == TimeCache && s.Stats().BookkeepingCycles == 0 {
			t.Fatal("TimeCache bookkeeping not charged")
		}
	}
}

func TestSpawnSpecWorkload(t *testing.T) {
	s, err := New(Config{Mode: TimeCache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnSpec("nonexistent", 0, 1000, 1); err == nil {
		t.Fatal("unknown workload must error")
	}
	p, err := s.SpawnSpec("namd", 0, 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1 << 62)
	if !p.Exited() {
		t.Fatal("workload did not finish")
	}
	if got := p.Stats().Instructions; got != 20_000 {
		t.Fatalf("instructions = %d, want 20000", got)
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "baseline" || TimeCache.String() != "timecache" || FTM.String() != "ftm" {
		t.Fatal("mode names wrong")
	}
	if !strings.HasPrefix(Mode(9).String(), "Mode(") {
		t.Fatal("unknown mode formatting")
	}
}

func TestPublicMicrobenchmark(t *testing.T) {
	base, err := RunMicrobenchmark(Baseline)
	if err != nil {
		t.Fatal(err)
	}
	def, err := RunMicrobenchmark(TimeCache)
	if err != nil {
		t.Fatal(err)
	}
	if base.Hits == 0 || def.Hits != 0 {
		t.Fatalf("baseline hits=%d (want >0), timecache hits=%d (want 0)", base.Hits, def.Hits)
	}
}

func TestPublicRSAAttack(t *testing.T) {
	base, err := RunRSAAttack(Baseline, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 || !base.VictimCorrect {
		t.Fatalf("baseline attack should succeed: %+v", base)
	}
	def, err := RunRSAAttack(TimeCache, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if def.Hits != 0 || !def.VictimCorrect {
		t.Fatalf("defended attack should observe nothing: %+v", def)
	}
	if len(def.KeyBits) != 32 || len(def.RecoveredBits) != 32 {
		t.Fatal("bit strings malformed")
	}
}

// TestExperimentSinglePair runs one Table II row through the public job
// seam and finds the paper's numbers for it. Pair-label resolution (ad-hoc
// "2X<profile>" pairs, unknown labels) is tested in internal/harness.
func TestExperimentSinglePair(t *testing.T) {
	tab, err := RunJob(Job{Experiment: "table2", Pairs: []string{"2Xnamd"}},
		ExperimentOptions{InstrsPerProc: 40_000, WarmupInstrs: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "2Xnamd" {
		t.Fatalf("want one 2Xnamd row:\n%s", tab.CSV())
	}
	if norm, err := strconv.ParseFloat(tab.Rows[0][1], 64); err != nil || norm <= 0 {
		t.Fatalf("normalized time missing: %q (%v)", tab.Rows[0][1], err)
	}
	if p, ok := PaperReference("2Xnamd"); !ok || p.Normalized == 0 {
		t.Fatal("paper reference missing for 2Xnamd")
	}
	if p, ok := PaperReference("facesim"); !ok || p.MPKIBase == 0 {
		t.Fatal("paper reference missing for PARSEC facesim")
	}
	if _, ok := PaperReference("2Xzeusmp"); ok {
		t.Fatal("the paper reports no 2Xzeusmp row")
	}
	if _, err := RunJob(Job{Experiment: "table2", Pairs: []string{"nonsense"}}, ExperimentOptions{}); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestDedupAPI(t *testing.T) {
	s, err := New(Config{Mode: TimeCache})
	if err != nil {
		t.Fatal(err)
	}
	// Two private copies of the same program (no share key): dedup should
	// merge their identical text pages.
	src := "movi r1, 1\nhalt"
	if _, err := s.LoadAsm(src, LoadOptions{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadAsm(src, LoadOptions{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if merged := s.DedupScan(); merged == 0 {
		t.Fatal("identical private text pages should merge")
	}
	if s.Stats().DedupMergedPages == 0 {
		t.Fatal("dedup stat not recorded")
	}
}
