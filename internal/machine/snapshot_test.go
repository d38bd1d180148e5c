package machine

import (
	"fmt"
	"sync"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/workload"
)

// spawnPairWarm installs the runWorkloadPair workloads with a warmup
// boundary: each process calls onWarm once when it crosses warmup
// instructions (nil skips the hook).
func spawnPairWarm(t testing.TB, m *Machine, total, warmup uint64, onWarm func()) {
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
		proc := workload.NewProc(prof, total, uint64(1001+i*1001))
		proc.Warmup, proc.OnWarm = warmup, onWarm
		if _, err := k.Spawn(name, proc, as, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// finishFingerprint formats the same externally-observable state
// runWorkloadPair fingerprints, for runs whose spawn and Run are split.
func finishFingerprint(m *Machine, cycles uint64) string {
	fp := fmt.Sprintf("cycles=%d stats=%+v", cycles, m.Kernel().Stats)
	for _, c := range m.Hierarchy().Caches() {
		fp += fmt.Sprintf(" %s=%+v", c.Name(), c.Stats)
	}
	return fp
}

// warmSnapshot runs the workload pair on a fresh machine to its warm point
// (both processes past warmup), captures a snapshot there, and returns it
// along with the still-running source machine.
func warmSnapshot(t testing.TB, cfg Config, total, warmup uint64) (*Snapshot, *Machine) {
	t.Helper()
	m := New(cfg)
	k := m.Kernel()
	warmed := 0
	spawnPairWarm(t, m, total, warmup, func() {
		warmed++
		if warmed == 2 {
			k.Interrupt()
		}
	})
	k.Run(1 << 62)
	if warmed != 2 || k.AllExited() {
		t.Fatalf("warm point not reached mid-run: warmed=%d exited=%v", warmed, k.AllExited())
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	k.ClearInterrupt()
	return snap, m
}

// TestSnapshotForkDeterminism is the tentpole contract: a fork of a warm
// snapshot, run to completion, is counter-identical to a cold machine that
// ran the whole workload — and the snapshotted source, resumed, is too (the
// capture is a pure bystander). Every path below must produce one
// fingerprint.
func TestSnapshotForkDeterminism(t *testing.T) {
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	const total, warmup = 20_000, 15_000

	cold := New(cfg)
	spawnPairWarm(t, cold, total, warmup, nil)
	want := finishFingerprint(cold, cold.Kernel().Run(1<<62))

	snap, src := warmSnapshot(t, cfg, total, warmup)

	// The source machine resumes and finishes as if never snapshotted.
	if got := finishFingerprint(src, src.Kernel().Run(1<<62)); got != want {
		t.Fatalf("snapshotted source diverged from cold run:\n got %s\nwant %s", got, want)
	}

	// A fork runs the remainder identically.
	f1 := snap.Fork()
	if got := finishFingerprint(f1, f1.Kernel().Run(1<<62)); got != want {
		t.Fatalf("first fork diverged from cold run:\n got %s\nwant %s", got, want)
	}

	// A second fork is unaffected by the first fork's writes.
	f2 := snap.Fork()
	if got := finishFingerprint(f2, f2.Kernel().Run(1<<62)); got != want {
		t.Fatalf("second fork diverged (sibling isolation):\n got %s\nwant %s", got, want)
	}

	// ForkInto a dirty machine (the finished source) needs no Reset.
	if err := snap.ForkInto(src); err != nil {
		t.Fatal(err)
	}
	if got := finishFingerprint(src, src.Kernel().Run(1<<62)); got != want {
		t.Fatalf("ForkInto a dirty machine diverged:\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotConfigMismatch: ForkInto refuses a machine of a different
// shape instead of silently corrupting it.
func TestSnapshotConfigMismatch(t *testing.T) {
	snap, _ := warmSnapshot(t, Config{Mode: cache.SecTimeCache, PhysFrames: 8192}, 20_000, 15_000)
	other := New(Config{Mode: cache.SecOff, PhysFrames: 8192})
	if err := snap.ForkInto(other); err == nil {
		t.Fatal("ForkInto accepted a machine with a different Config")
	}
}

// TestSnapshotConcurrentForks forks one snapshot from many goroutines under
// -race: the frozen machine and the sealed frame buffers are shared
// read-only, so concurrent forks must neither race nor diverge.
func TestSnapshotConcurrentForks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	const total, warmup = 20_000, 15_000

	cold := New(cfg)
	spawnPairWarm(t, cold, total, warmup, nil)
	want := finishFingerprint(cold, cold.Kernel().Run(1<<62))

	snap, _ := warmSnapshot(t, cfg, total, warmup)
	const goroutines = 8
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := snap.Fork()
			if got := finishFingerprint(f, f.Kernel().Run(1<<62)); got != want {
				errc <- fmt.Errorf("goroutine %d: fork diverged:\n got %s\nwant %s", g, got, want)
				return
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
}

// TestPoolForkAndSnapshotShelf pins the pool-side snapshot surface: Fork
// reuses idle machines without Reset, the shelf stores and returns by key
// with hit/miss accounting, and the shelf is FIFO-bounded.
func TestPoolForkAndSnapshotShelf(t *testing.T) {
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	const total, warmup = 20_000, 15_000

	cold := New(cfg)
	spawnPairWarm(t, cold, total, warmup, nil)
	want := finishFingerprint(cold, cold.Kernel().Run(1<<62))

	snap, _ := warmSnapshot(t, cfg, total, warmup)
	p := NewPool()

	// Fork from an empty pool builds fresh (a miss).
	m1 := p.Fork(snap)
	if got := finishFingerprint(m1, m1.Kernel().Run(1<<62)); got != want {
		t.Fatalf("pool fork (fresh) diverged:\n got %s\nwant %s", got, want)
	}
	p.Put(m1)
	// Fork again: the dirty machine is reused without Reset.
	m2 := p.Fork(snap)
	if m2 != m1 {
		t.Fatal("pool did not reuse the idle machine for Fork")
	}
	if got := finishFingerprint(m2, m2.Kernel().Run(1<<62)); got != want {
		t.Fatalf("pool fork (reused, no Reset) diverged:\n got %s\nwant %s", got, want)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("pool stats after two Forks = %+v, want 1 hit / 1 miss", s)
	}

	// Shelf: miss, put, hit.
	type key struct{ name string }
	if got := p.Snapshot(key{"a"}); got != nil {
		t.Fatal("empty shelf returned a snapshot")
	}
	p.PutSnapshot(key{"a"}, snap)
	if got := p.Snapshot(key{"a"}); got != snap {
		t.Fatal("shelf did not return the stored snapshot")
	}
	s = p.Stats()
	if s.SnapshotHits != 1 || s.SnapshotMisses != 1 {
		t.Fatalf("snapshot stats = %+v, want 1 hit / 1 miss", s)
	}

	// FIFO bound: overfilling evicts the oldest key.
	for i := 0; i < defaultSnapCap; i++ {
		p.PutSnapshot(key{fmt.Sprintf("fill%d", i)}, snap)
	}
	if got := p.Snapshot(key{"a"}); got != nil {
		t.Fatal("oldest shelf key survived past the cap")
	}
	if got := p.Snapshot(key{fmt.Sprintf("fill%d", defaultSnapCap-1)}); got != snap {
		t.Fatal("newest shelf key missing")
	}

	// Nil-pool forks still work.
	var nilPool *Pool
	m3 := nilPool.Fork(snap)
	if got := finishFingerprint(m3, m3.Kernel().Run(1<<62)); got != want {
		t.Fatalf("nil-pool fork diverged:\n got %s\nwant %s", got, want)
	}
	nilPool.PutSnapshot(key{"x"}, snap) // must not panic
	if nilPool.Snapshot(key{"x"}) != nil {
		t.Fatal("nil pool returned a snapshot")
	}
}

// TestPoolIdleCapEviction: Puts past the per-config cap drop the machine
// and count an eviction.
func TestPoolIdleCapEviction(t *testing.T) {
	p := NewPool()
	cfg := Config{Mode: cache.SecOff, PhysFrames: 8192}
	for i := 0; i < DefaultIdleCap+3; i++ {
		p.Put(New(cfg))
	}
	if got := p.Size(); got != DefaultIdleCap {
		t.Fatalf("pool size = %d, want %d (cap)", got, DefaultIdleCap)
	}
	if s := p.Stats(); s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", s.Evictions)
	}
}

// TestForkRestoreAllocs pins the fork hot path's allocation behavior: the
// bulk state movers — Physical.CopyFrom and Hierarchy.CopyFrom — must be
// allocation-free once the destination's buffers exist (COW means no page
// copies at fork time; line arrays and s-bit columns are reused in place).
func TestForkRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	snap, _ := warmSnapshot(t, cfg, 20_000, 15_000)
	dst := snap.Fork() // populate dst's buffers once

	src := snap.m
	if n := testing.AllocsPerRun(10, func() {
		dst.phys.CopyFrom(src.phys)
	}); n != 0 {
		t.Errorf("Physical.CopyFrom allocates %v per steady-state restore, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		dst.Hierarchy().CopyFrom(src.Hierarchy())
	}); n != 0 {
		t.Errorf("Hierarchy.CopyFrom allocates %v per steady-state restore, want 0", n)
	}
}

// runWarmLeg is the benchmark leg: a warmup-dominated run (18k of 20k
// instructions are warmup) of the standard workload pair.
const benchTotal, benchWarmup = 20_000, 18_000

// BenchmarkSweepColdWarmup prices the old way to run repeated same-shape
// legs: every iteration pays the full warmup from a Reset machine.
func BenchmarkSweepColdWarmup(b *testing.B) {
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	pool := NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pool.Get(cfg)
		spawnPairWarm(b, m, benchTotal, benchWarmup, nil)
		m.Kernel().Run(1 << 62)
		pool.Put(m)
	}
}

// BenchmarkSweepFork prices the snapshot path for the same leg: the warmup
// runs once (outside the timer) and every iteration forks the warm snapshot
// and runs only the measured remainder. The ratio to BenchmarkSweepColdWarmup
// is the per-leg speedup on warmup-dominated sweeps.
func BenchmarkSweepFork(b *testing.B) {
	cfg := Config{Mode: cache.SecTimeCache, PhysFrames: 8192}
	snap, _ := warmSnapshot(b, cfg, benchTotal, benchWarmup)
	pool := NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pool.Fork(snap)
		m.Kernel().Run(1 << 62)
		pool.Put(m)
	}
}
