package machine

import (
	"fmt"
	"sync"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// TestHierarchyConfigMapping pins the canonical Config → HierarchyConfig
// derivation: the zero Config keeps every paper default, and each Config
// field lands in exactly the HierarchyConfig field the old per-caller
// derivations (timecache.go, internal/harness) used to set. HierarchyConfig
// is comparable, so the zero-config case is a single == against
// cache.DefaultHierarchyConfig.
func TestHierarchyConfigMapping(t *testing.T) {
	if got, want := (Config{}).HierarchyConfig(), cache.DefaultHierarchyConfig(); got != want {
		t.Fatalf("zero Config must map to the paper defaults:\n got %+v\nwant %+v", got, want)
	}

	full := Config{
		Defense:           defense.TimeCache,
		Cores:             4,
		ThreadsPerCore:    2,
		L1Size:            16 << 10,
		LLCSize:           1 << 20,
		TimestampBits:     16,
		GateLevel:         true,
		MaxSharers:        3,
		ConstantTimeFlush: true,
		RandomizedIndex:   0xABCD,
		CoherenceCheck:    true,
		NextLinePrefetch:  true,
		DisableDirectory:  true,
		Policy:            "random",
		PolicySeed:        99,
	}
	want := cache.DefaultHierarchyConfig()
	want.Mode = cache.SecTimeCache
	want.Cores = 4
	want.ThreadsPerCore = 2
	want.L1Size = 16 << 10
	want.LLCSize = 1 << 20
	want.Sec.TimestampBits = 16
	want.Sec.GateLevel = true
	want.Sec.MaxSharers = 3
	want.ConstantTimeFlush = true
	want.IndexRand = 0xABCD
	want.CoherenceCheck = true
	want.NextLinePrefetch = true
	want.DisableDirectory = true
	want.Policy = "random"
	want.PolicySeed = 99
	if got := full.HierarchyConfig(); got != want {
		t.Fatalf("full Config mapping:\n got %+v\nwant %+v", got, want)
	}

	// Way partitioning is a defense kind, and the kind keeps every other
	// field's mapping.
	full.Defense = defense.DAWGLite
	want.Mode, want.Partitioned = cache.SecOff, true
	if got := full.HierarchyConfig(); got != want {
		t.Fatalf("dawg-lite Config mapping:\n got %+v\nwant %+v", got, want)
	}
}

// TestKernelConfigMapping pins the Config → kernel.Config derivation.
func TestKernelConfigMapping(t *testing.T) {
	if got, want := (Config{}).KernelConfig(), kernel.DefaultConfig(); got != want {
		t.Fatalf("zero Config must map to the kernel defaults:\n got %+v\nwant %+v", got, want)
	}
	want := kernel.DefaultConfig()
	want.SliceCycles = 12345
	want.FlushOnSwitch = true
	if got := (Config{SliceCycles: 12345, Defense: defense.FlushOnSwitch}).KernelConfig(); got != want {
		t.Fatalf("kernel mapping:\n got %+v\nwant %+v", got, want)
	}
}

// runWorkloadPair runs two small SPEC workload models to completion on m
// and returns a fingerprint of everything externally observable: total
// cycles, kernel stats, and every cache's counter block. Two fingerprints
// are equal iff the runs were cycle- and counter-identical.
func runWorkloadPair(t testing.TB, m *Machine) string {
	t.Helper()
	k := m.Kernel()
	for i, name := range []string{"gobmk", "lbm"} {
		prof, err := workload.Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		as, err := workload.BuildSharedAS(k, prof)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Spawn(name, workload.NewProc(prof, 20_000, uint64(1001+i*1001)), as, 0); err != nil {
			t.Fatal(err)
		}
	}
	cycles := k.Run(1 << 62)
	fp := fmt.Sprintf("cycles=%d stats=%+v", cycles, k.Stats)
	for _, c := range m.Hierarchy().Caches() {
		fp += fmt.Sprintf(" %s=%+v", c.Name(), c.Stats)
	}
	return fp
}

// TestResetDeterminism is the core pooling contract: a machine that ran a
// workload and was Reset must replay the same workload with exactly the
// cycles and counters a fresh machine produces. The golden experiment tests
// enforce the same property end-to-end; this one localizes a violation to
// the machine layer.
func TestResetDeterminism(t *testing.T) {
	cfg := Config{Defense: defense.TimeCache, PhysFrames: 8192}
	fresh := runWorkloadPair(t, New(cfg))

	m := New(cfg)
	if got := runWorkloadPair(t, m); got != fresh {
		t.Fatalf("two fresh machines disagree:\n got %s\nwant %s", got, fresh)
	}
	m.Reset()
	if got := runWorkloadPair(t, m); got != fresh {
		t.Fatalf("reset machine diverged from fresh:\n got %s\nwant %s", got, fresh)
	}
}

// TestResetDetachesTelemetry: Reset must drop the observer so a pooled
// machine never reports into a previous run's collector.
func TestResetDetachesTelemetry(t *testing.T) {
	m := New(Config{PhysFrames: 8192})
	col := telemetry.New(telemetry.Config{}).Attach(m.Kernel())
	runWorkloadPair(t, m)
	observed := col.Histograms().Total()
	if observed == 0 {
		t.Fatal("the attached collector observed no accesses")
	}
	m.Reset()
	runWorkloadPair(t, m)
	if got := col.Histograms().Total(); got != observed {
		t.Fatalf("Reset left the telemetry observer attached: %d accesses observed after Reset", got-observed)
	}
}

// TestPoolReuse pins the pool contract: Get after Put with the same config
// returns the same machine (reset), concurrent checkouts and different
// configs get distinct machines, nil pool → always fresh.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	a := Config{Defense: defense.TimeCache, PhysFrames: 8192}
	b := Config{Defense: defense.None, PhysFrames: 8192}

	m1 := p.Get(a)
	if m2 := p.Get(a); m2 == m1 {
		t.Fatal("pool handed out a checked-out machine twice")
	}
	p.Put(m1)
	if m2 := p.Get(a); m2 != m1 {
		t.Fatal("pool did not reuse the returned machine for an identical config")
	}
	if m3 := p.Get(b); m3 == m1 {
		t.Fatal("pool returned the same machine for a different config")
	}
	p.Put(m1)
	if p.Size() != 1 {
		t.Fatalf("pool holds %d idle machines, want 1", p.Size())
	}

	var nilPool *Pool
	n1, n2 := nilPool.Get(a), nilPool.Get(a)
	if n1 == nil || n2 == nil || n1 == n2 {
		t.Fatal("nil pool must build a fresh machine per Get")
	}
	nilPool.Put(n1) // must not panic
	if nilPool.Size() != 0 {
		t.Fatal("nil pool reports nonzero size")
	}
}

// TestPoolConcurrent hammers one shared pool from 8 goroutines under -race:
// every goroutine repeatedly checks machines out, runs a short workload on
// them, and puts them back. Each checked-out machine must behave exactly
// like a private fresh machine — the fingerprints prove no two goroutines
// ever shared simulator state, and the race detector proves the pool's own
// bookkeeping is synchronized.
func TestPoolConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pool := NewPool()
	cfgs := []Config{
		{Defense: defense.TimeCache, PhysFrames: 8192},
		{Defense: defense.None, PhysFrames: 8192},
	}
	// Reference fingerprints from private fresh machines.
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = runWorkloadPair(t, New(cfg))
	}

	const goroutines = 8
	const itersPer = 6
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < itersPer; i++ {
				ci := (g + i) % len(cfgs)
				m := pool.Get(cfgs[ci])
				got := runWorkloadPair(t, m)
				pool.Put(m)
				if got != want[ci] {
					errc <- fmt.Errorf("goroutine %d iter %d: pooled machine diverged:\n got %s\nwant %s", g, i, got, want[ci])
					return
				}
			}
			errc <- nil
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if pool.Size() > goroutines*len(cfgs) {
		t.Fatalf("pool grew unboundedly: %d idle machines", pool.Size())
	}
}

// BenchmarkMachineNew measures full machine assembly (the per-run cost the
// pool eliminates) for the paper's default TimeCache shape.
func BenchmarkMachineNew(b *testing.B) {
	cfg := Config{Defense: defense.TimeCache}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(cfg)
	}
}

// BenchmarkMachineReset measures returning an assembled machine to cold
// state. Compare against BenchmarkMachineNew: the difference is what every
// pooled sweep leg saves.
func BenchmarkMachineReset(b *testing.B) {
	m := New(Config{Defense: defense.TimeCache})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
	}
}

// BenchmarkSweepRebuild and BenchmarkSweepReuse run the same small workload
// leg per iteration; Rebuild assembles a fresh machine each time (the old
// sweep behavior), Reuse takes a Reset machine from a pool (the new
// behavior). The gap is the measured end-to-end pooling win.
func BenchmarkSweepRebuild(b *testing.B) {
	cfg := Config{Defense: defense.TimeCache, PhysFrames: 8192}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runWorkloadPair(b, New(cfg))
	}
}

func BenchmarkSweepReuse(b *testing.B) {
	cfg := Config{Defense: defense.TimeCache, PhysFrames: 8192}
	pool := NewPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := pool.Get(cfg)
		runWorkloadPair(b, m)
		pool.Put(m)
	}
}

// TestPoolStats checks the hit/miss accounting: a Get served from an empty
// pool (or a different config's shelf) counts a miss, a Get that reuses a
// returned machine counts a hit, and a nil pool reports zeros forever.
func TestPoolStats(t *testing.T) {
	p := NewPool()
	a := Config{Defense: defense.TimeCache, PhysFrames: 8192}
	b := Config{Defense: defense.None, PhysFrames: 8192}

	if s := p.Stats(); s != (PoolStats{IdleCap: DefaultIdleCap}) {
		t.Fatalf("fresh pool stats = %+v, want zero counters", s)
	}
	m1 := p.Get(a) // miss: pool empty
	p.Get(a)       // miss: m1 checked out
	if s := p.Stats(); s != (PoolStats{Misses: 2, IdleCap: DefaultIdleCap}) {
		t.Fatalf("after two cold Gets stats = %+v, want 2 misses", s)
	}
	p.Put(m1)
	if m := p.Get(a); m != m1 { // hit
		t.Fatal("pool did not reuse the returned machine")
	}
	p.Get(b) // miss: different config shelf is empty
	if s := p.Stats(); s != (PoolStats{Hits: 1, Misses: 3, IdleCap: DefaultIdleCap}) {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses", s)
	}

	var nilPool *Pool
	nilPool.Get(a)
	if s := nilPool.Stats(); s != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v, want zeros", s)
	}
}
