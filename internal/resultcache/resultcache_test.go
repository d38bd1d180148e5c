package resultcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timecache/internal/stats"
)

func entry(key string, size int) *Entry {
	return &Entry{Key: key, CSV: make([]byte, size), Table: stats.NewTable("a")}
}

// TestStoreLRUOrder: the entry bound evicts least-recently-used first, and
// Get refreshes recency.
func TestStoreLRUOrder(t *testing.T) {
	s := NewMemoryStore(2, 0)
	var evicted []string
	s.OnEvict(func(e *Entry) { evicted = append(evicted, e.Key) })
	s.Put("a", entry("a", 10))
	s.Put("b", entry("b", 10))
	if _, ok := s.Get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	s.Put("c", entry("c", 10))
	if _, ok := s.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := s.Get("a"); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, ok := s.Get("c"); !ok {
		t.Error("c (just inserted) was evicted")
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Errorf("evicted = %v, want [b]", evicted)
	}
}

// TestStoreByteBound: the byte bound displaces oldest entries until the
// footprint fits, and a single oversized entry is still admitted alone.
func TestStoreByteBound(t *testing.T) {
	one := entry("probe", 0).Size() // fixed per-entry overhead
	s := NewMemoryStore(0, 3*one+300)
	s.Put("a", entry("a", 100))
	s.Put("b", entry("b", 100))
	s.Put("c", entry("c", 100))
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	s.Put("d", entry("d", 100))
	if s.Len() != 3 {
		t.Errorf("len after overflow = %d, want 3", s.Len())
	}
	if _, ok := s.Get("a"); ok {
		t.Error("oldest entry a survived byte-bound eviction")
	}
	// Oversized single entry: everything else evicted, the giant stays.
	s.Put("giant", entry("giant", 10_000))
	if _, ok := s.Get("giant"); !ok {
		t.Error("oversized entry was not admitted")
	}
	if s.Len() != 1 {
		t.Errorf("len with oversized entry = %d, want 1", s.Len())
	}
}

// TestStoreReplaceAndPurge: replacing a key re-accounts its bytes; Purge
// drops entries without counting as evictions.
func TestStoreReplaceAndPurge(t *testing.T) {
	s := NewMemoryStore(0, 0)
	evictions := 0
	s.OnEvict(func(*Entry) { evictions++ })
	s.Put("a", entry("a", 1000))
	big := s.Bytes()
	s.Put("a", entry("a", 10))
	if s.Bytes() >= big {
		t.Errorf("bytes after shrink-replace = %d, want < %d", s.Bytes(), big)
	}
	if s.Len() != 1 {
		t.Errorf("len after replace = %d, want 1", s.Len())
	}
	s.Put("x", entry("x", 1))
	s.Put("y", entry("y", 1))
	if n := s.Purge(); n != 3 {
		t.Errorf("purge = %d, want 3", n)
	}
	if s.Bytes() != 0 {
		t.Errorf("bytes after purge = %d, want 0", s.Bytes())
	}
	if evictions != 0 {
		t.Errorf("evictions = %d, want 0 (Purge is not eviction)", evictions)
	}
}

// TestCacheBeginAccounting: hit/miss/coalesced each count exactly once per
// admission, and the post-leadership re-check turns a lost race into a hit.
func TestCacheBeginAccounting(t *testing.T) {
	c := New(WithMaxEntries(8))
	e, f, leader := c.Begin("k")
	if e != nil || f == nil || !leader {
		t.Fatalf("first Begin = (%v, %v, %v), want miss leadership", e, f, leader)
	}
	e2, f2, leader2 := c.Begin("k")
	if e2 != nil || f2 != f || leader2 {
		t.Fatalf("second Begin should coalesce onto the same flight")
	}
	c.Complete(f, entry("k", 10), nil)
	e3, f3, _ := c.Begin("k")
	if e3 == nil || f3 != nil {
		t.Fatalf("Begin after Complete should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 coalesced", st)
	}
	if st.Entries != 1 || st.InFlight != 0 {
		t.Errorf("stats footprint = %+v, want 1 entry, 0 in flight", st)
	}
}

// TestCacheFailedFlightStaysUncached: a failed leader leaves the key
// uncached, so the next admission re-runs.
func TestCacheFailedFlightStaysUncached(t *testing.T) {
	c := New()
	_, f, leader := c.Begin("k")
	if !leader {
		t.Fatal("want leadership")
	}
	c.Complete(f, nil, errors.New("boom"))
	if e, _ := f.Result(); e != nil {
		t.Error("failed flight carries an entry")
	}
	_, f2, leader2 := c.Begin("k")
	if !leader2 || f2 == f {
		t.Error("after failure the next admission must open a fresh flight")
	}
	c.Complete(f2, entry("k", 1), nil)
}

// TestFlightFollowers: followers see progress fan-out and the final result;
// a thundering herd admits exactly one leader.
func TestFlightFollowers(t *testing.T) {
	c := New()
	const herd = 64
	var leaders, coalesced, progressed atomic.Int64
	var wg sync.WaitGroup
	leaderCh := make(chan *Flight, 1)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, f, leader := c.Begin("k")
			if e != nil {
				t.Error("unexpected hit: nothing was completed yet")
				return
			}
			if leader {
				leaders.Add(1)
				leaderCh <- f
				return
			}
			coalesced.Add(1)
			f.OnProgress(func(done, total int) { progressed.Add(1) })
			select {
			case <-f.Done():
			case <-time.After(10 * time.Second):
				t.Error("follower never unblocked")
				return
			}
			if e, err := f.Result(); err != nil || e == nil || e.Key != "k" {
				t.Errorf("follower result = (%v, %v)", e, err)
			}
		}()
	}
	f := <-leaderCh
	// Let the followers register, then progress and finish.
	for c.Stats().Coalesced < herd-1 {
		time.Sleep(time.Millisecond)
	}
	f.Progress(1, 2)
	c.Complete(f, entry("k", 10), nil)
	wg.Wait()
	if leaders.Load() != 1 || coalesced.Load() != herd-1 {
		t.Errorf("leaders=%d coalesced=%d, want 1/%d", leaders.Load(), coalesced.Load(), herd-1)
	}
	if progressed.Load() == 0 {
		t.Error("no follower saw the progress fan-out")
	}
	if st := c.Stats(); st.Misses != 1 || st.Coalesced != herd-1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCachePurge: purge empties the store and reports the count; stats
// reflect the empty footprint.
func TestCachePurge(t *testing.T) {
	c := New(WithMaxEntries(16))
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		_, f, _ := c.Begin(key)
		c.Complete(f, entry(key, 10), nil)
	}
	if n := c.Purge(); n != 5 {
		t.Errorf("purge = %d, want 5", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after purge = %+v", st)
	}
}

// TestStoreConcurrent hammers one store from many goroutines under -race.
func TestStoreConcurrent(t *testing.T) {
	s := NewMemoryStore(32, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				if _, ok := s.Get(key); !ok {
					s.Put(key, entry(key, i%256))
				}
				if i%97 == 0 {
					s.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 32 {
		t.Errorf("len = %d exceeds bound", s.Len())
	}
}

// --- benchmarks (recorded in BENCH_baseline.json) ---

// BenchmarkCacheHit prices the hot path a repeat submission pays instead of
// a simulation: one store lookup under the admission counters.
func BenchmarkCacheHit(b *testing.B) {
	c := New(WithMaxEntries(512))
	_, f, _ := c.Begin("k")
	c.Complete(f, entry("k", 4096), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _, _ := c.Begin("k"); e == nil {
			b.Fatal("miss on warm key")
		}
	}
}

// BenchmarkCacheMiss prices a cold admission: leadership plus the
// bookkeeping to resolve the flight (store write included).
func BenchmarkCacheMiss(b *testing.B) {
	c := New(WithMaxEntries(512))
	e := entry("k", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i)
		_, f, leader := c.Begin(key)
		if !leader {
			b.Fatal("expected leadership")
		}
		e.Key = key
		c.Complete(f, e, nil)
	}
}

// BenchmarkCacheCoalesced prices a follower admission against an open
// flight: what each member of a thundering herd pays.
func BenchmarkCacheCoalesced(b *testing.B) {
	c := New(WithMaxEntries(512))
	_, f, _ := c.Begin("k")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ff, leader := c.Begin("k"); leader || ff != f {
			b.Fatal("expected coalesce")
		}
	}
	b.StopTimer()
	c.Complete(f, entry("k", 1), nil)
}
