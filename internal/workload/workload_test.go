package workload

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"timecache/internal/cache"
	"timecache/internal/kernel"
	"timecache/internal/mem"
	"timecache/internal/sim"
)

// specNames lists every SPEC profile in sorted order.
func specNames() []string {
	names := make([]string, 0, len(specProfiles))
	for name := range specProfiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestProfileLookups(t *testing.T) {
	if n := len(specNames()); n < 15 {
		t.Fatalf("SPEC list too short: %d profiles", n)
	}
	if n := len(ParsecNames()); n != 6 {
		t.Fatalf("PARSEC list should have 6 entries, got %d", n)
	}
	for _, name := range specNames() {
		p, err := Spec(name)
		if err != nil {
			t.Fatalf("Spec(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile name not set for %q", name)
		}
		if p.MemRatio <= 0 || p.MemRatio > 1 {
			t.Errorf("%s: MemRatio %v out of range", name, p.MemRatio)
		}
		if p.CodeBytes == 0 || p.WSBytes == 0 || p.StreamBytes == 0 {
			t.Errorf("%s: zero-sized region", name)
		}
	}
	for _, name := range ParsecNames() {
		if _, err := Parsec(name); err != nil {
			t.Fatalf("Parsec(%q): %v", name, err)
		}
	}
	if _, err := Spec("nope"); err == nil {
		t.Error("unknown SPEC profile must error")
	}
	if _, err := Parsec("nope"); err == nil {
		t.Error("unknown PARSEC profile must error")
	}
}

func TestSpecPairsMatchTableII(t *testing.T) {
	pairs := SpecPairs()
	if len(pairs) != 24 {
		t.Fatalf("Table II has 24 SPEC workloads, got %d", len(pairs))
	}
	for _, p := range pairs {
		if _, err := Spec(p.A); err != nil {
			t.Errorf("pair %s references unknown profile %s", p.Label, p.A)
		}
		if _, err := Spec(p.B); err != nil {
			t.Errorf("pair %s references unknown profile %s", p.Label, p.B)
		}
		if _, ok := PaperTableII[p.Label]; !ok {
			t.Errorf("no paper reference for %s", p.Label)
		}
	}
	for _, name := range ParsecNames() {
		if _, ok := PaperParsec[name]; !ok {
			t.Errorf("no paper reference for parsec %s", name)
		}
	}
}

// countingEnv tallies the access mix a Proc generates.
type countingEnv struct {
	fetches, loads, stores uint64
	fetchAddrs             map[uint64]bool
	loadAddrs              map[uint64]bool
	now                    uint64
	exited                 bool
}

func newCountingEnv() *countingEnv {
	return &countingEnv{fetchAddrs: map[uint64]bool{}, loadAddrs: map[uint64]bool{}}
}

func (e *countingEnv) Fetch(v uint64)           { e.fetches++; e.fetchAddrs[v&^63] = true; e.now++ }
func (e *countingEnv) Load(v uint64) uint64     { e.loads++; e.loadAddrs[v&^63] = true; e.now++; return 0 }
func (e *countingEnv) Store(v uint64, x uint64) { e.stores++; e.now++ }
func (e *countingEnv) Flush(v uint64)           { e.now++ }
func (e *countingEnv) Now() uint64              { return e.now }
func (e *countingEnv) Tick(n uint64)            { e.now += n }
func (e *countingEnv) Instret(n uint64)         {}
func (e *countingEnv) PID() int                 { return 1 }
func (e *countingEnv) Syscall(n, a uint64) uint64 {
	if n == sim.SysExit {
		e.exited = true
	}
	return 0
}

func TestProcAccessMixMatchesProfile(t *testing.T) {
	prof, _ := Spec("lbm")
	const n = 200_000
	p := NewProc(prof, n, 7)
	env := newCountingEnv()
	for p.Step(env) {
	}
	if !env.exited {
		t.Fatal("proc must exit at its budget")
	}
	if env.fetches != n {
		t.Fatalf("fetches = %d, want one per instruction (%d)", env.fetches, n)
	}
	memOps := float64(env.loads + env.stores)
	gotRatio := memOps / float64(n)
	if gotRatio < prof.MemRatio*0.9 || gotRatio > prof.MemRatio*1.1 {
		t.Fatalf("memory ratio %.3f, profile says %.3f", gotRatio, prof.MemRatio)
	}
	storeShare := float64(env.stores) / memOps
	// Stores apply within stream and WS accesses (not libc data), so the
	// observed share sits slightly below StoreRatio.
	if storeShare < prof.StoreRatio*0.8 || storeShare > prof.StoreRatio*1.1 {
		t.Fatalf("store share %.3f vs StoreRatio %.3f", storeShare, prof.StoreRatio)
	}
}

func TestProcDeterministicPerSeed(t *testing.T) {
	prof, _ := Spec("gobmk")
	run := func(seed uint64) (uint64, uint64) {
		p := NewProc(prof, 20_000, seed)
		env := newCountingEnv()
		for p.Step(env) {
		}
		return env.loads, env.stores
	}
	l1, s1 := run(42)
	l2, s2 := run(42)
	l3, _ := run(43)
	if l1 != l2 || s1 != s2 {
		t.Fatal("same seed must give identical streams")
	}
	if l1 == l3 {
		t.Fatal("different seeds should differ")
	}
}

func TestWarmupCallbackFiresOnce(t *testing.T) {
	prof, _ := Spec("namd")
	p := NewProc(prof, 10_000, 1)
	fired := 0
	p.Warmup, p.OnWarm = 5_000, func() { fired++ }
	env := newCountingEnv()
	for p.Step(env) {
	}
	if fired != 1 {
		t.Fatalf("OnWarm fired %d times, want 1", fired)
	}
	if p.retired != 10_000 {
		t.Fatalf("retired %d, want 10000", p.retired)
	}
}

func TestSpawnSharesCodeAndLibc(t *testing.T) {
	hcfg := cache.DefaultHierarchyConfig()
	hier := cache.NewHierarchy(hcfg)
	phys := mem.NewPhysical(8192, hcfg.DRAMLat)
	k := kernel.New(kernel.DefaultConfig(), hier, phys)
	prof, _ := Spec("namd")
	p1, _, err := Spawn(k, prof, SpawnOptions{Instrs: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Spawn(k, prof, SpawnOptions{Instrs: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same benchmark: code frames shared; streams private.
	f1, _ := p1.AS.FrameAt(codeBase)
	f2, _ := p2.AS.FrameAt(codeBase)
	if f1 != f2 {
		t.Fatal("benchmark text must be shared between instances")
	}
	l1, _ := p1.AS.FrameAt(libBase)
	l2, _ := p2.AS.FrameAt(libBase)
	if l1 != l2 {
		t.Fatal("libc must be shared")
	}
	s1, _ := p1.AS.FrameAt(streamBase)
	s2, _ := p2.AS.FrameAt(streamBase)
	if s1 == s2 {
		t.Fatal("stream regions must be private")
	}
	// A different benchmark shares libc but not code.
	prof2, _ := Spec("gobmk")
	p3, _, err := Spawn(k, prof2, SpawnOptions{Instrs: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f3, _ := p3.AS.FrameAt(codeBase)
	if f3 == f1 {
		t.Fatal("different benchmarks must not share text")
	}
	l3, _ := p3.AS.FrameAt(libBase)
	if l3 != l1 {
		t.Fatal("libc is shared across all benchmarks")
	}
}

func TestFramesNeededCoversRegions(t *testing.T) {
	f := func(seedByte uint8) bool {
		names := specNames()
		prof, _ := Spec(names[int(seedByte)%len(names)])
		need := FramesNeeded(prof)
		total := int(prof.StreamBytes+prof.WSBytes+prof.CodeBytes+LibBytes) / 4096
		return need >= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcAddressesStayInRegions(t *testing.T) {
	prof, _ := Spec("wrf")
	p := NewProc(prof, 50_000, 11)
	env := newCountingEnv()
	for p.Step(env) {
	}
	for a := range env.fetchAddrs {
		inCode := a >= codeBase && a < codeBase+prof.CodeBytes
		inLib := a >= libBase && a < libBase+LibBytes
		if !inCode && !inLib {
			t.Fatalf("fetch outside code/lib regions: %#x", a)
		}
	}
	for a := range env.loadAddrs {
		inStream := a >= streamBase && a < streamBase+prof.StreamBytes
		inWS := a >= wsBase && a < wsBase+prof.WSBytes
		inLibData := a >= libDataBase && a < libDataBase+LibDataBytes
		if !inStream && !inWS && !inLibData {
			t.Fatalf("load outside data regions: %#x", a)
		}
	}
}

// streamEnv logs every memory operation a Proc issues with its address.
type streamEnv struct {
	countingEnv
	ops []string
}

func (e *streamEnv) Fetch(v uint64) { e.ops = append(e.ops, fmt.Sprint("fetch ", v)) }
func (e *streamEnv) Load(v uint64) uint64 {
	e.ops = append(e.ops, fmt.Sprint("load ", v))
	return 0
}
func (e *streamEnv) Store(v, x uint64) { e.ops = append(e.ops, fmt.Sprint("store ", v, " ", x)) }

// touchStreamEnv is a streamEnv that also offers timing-only loads
// (sim.Toucher), logged under their own op.
type touchStreamEnv struct{ streamEnv }

func (e *touchStreamEnv) Touch(v uint64) { e.ops = append(e.ops, fmt.Sprint("touch ", v)) }

// TestTouchReplacesEveryLoad pins the timing-only load contract on the
// workload side: given an Env with Touch, a Proc issues exactly the stream
// it issues to a plain Env, with every Load (whose value the model always
// discards) replaced by a Touch of the same address.
func TestTouchReplacesEveryLoad(t *testing.T) {
	prof, _ := Spec("gobmk")
	plain := &streamEnv{}
	for p := NewProc(prof, 20_000, 5); p.Step(plain); {
	}
	touching := &touchStreamEnv{}
	for p := NewProc(prof, 20_000, 5); p.Step(touching); {
	}
	if len(plain.ops) != len(touching.ops) {
		t.Fatalf("%d ops with Touch, %d without", len(touching.ops), len(plain.ops))
	}
	loads := 0
	for i, op := range plain.ops {
		want := op
		if strings.HasPrefix(op, "load ") {
			want = "touch " + strings.TrimPrefix(op, "load ")
			loads++
		}
		if touching.ops[i] != want {
			t.Fatalf("op %d = %q, want %q", i, touching.ops[i], want)
		}
	}
	if loads == 0 {
		t.Fatal("the stream has no loads to replace")
	}
}
