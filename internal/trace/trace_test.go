package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"timecache/internal/cache"
	"timecache/internal/kernel"
	"timecache/internal/mem"
	"timecache/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{KindFetch, 0x1000},
		{KindLoad, 0xDEADBEEF},
		{KindStore, 0},
		{KindFlush, 1 << 40},
		{KindTick, 7},
		{KindInstret, 1},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Fatalf("count = %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, addrs []uint64) bool {
		n := len(kinds)
		if len(addrs) < n {
			n = len(addrs)
		}
		var recs []Record
		for i := 0; i < n; i++ {
			recs = append(recs, Record{Kind(kinds[i] % uint8(kindCount)), addrs[i]})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("nope....")).Read(); err == nil {
		t.Fatal("bad magic must error")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{KindLoad, 1 << 40})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-2]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record must error")
	}
}

func TestEmptyTraceCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Flush()
	r := NewReader(&buf)
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("empty trace: err = %v, want io.EOF", err)
	}
}

func TestInvalidKindRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{Kind(99), 1}); err == nil {
		t.Fatal("invalid kind must be rejected on write")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d missing a name", k)
		}
	}
}

// machine builds a 1-core kernel for record/replay tests.
func machine() (*kernel.Kernel, cache.HierarchyConfig) {
	hcfg := cache.DefaultHierarchyConfig()
	hier := cache.NewHierarchy(hcfg)
	phys := mem.NewPhysical(8192, hcfg.DRAMLat)
	return kernel.New(kernel.DefaultConfig(), hier, phys), hcfg
}

// TestRecordReplayReproducesCacheBehavior records a workload run, then
// replays the trace through an identical fresh machine and checks that the
// cache counters match exactly.
func TestRecordReplayReproducesCacheBehavior(t *testing.T) {
	prof, err := workload.Spec("gobmk")
	if err != nil {
		t.Fatal(err)
	}

	// Recording run.
	k1, _ := machine()
	as1, err := workload.BuildSharedAS(k1, prof)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := &RecordingProc{Inner: workload.NewProc(prof, 30_000, 7), W: w}
	if _, err := k1.Spawn("rec", rec, as1, 0); err != nil {
		t.Fatal(err)
	}
	k1.Run(1 << 62)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	// The workload's loads reach the kernel's Env as timing-only Touches
	// when it runs unwrapped; under the recorder they must still be
	// recorded as loads. Every load and store is one L1D access.
	var dataOps uint64
	for _, r := range recs {
		if r.Kind == KindLoad || r.Kind == KindStore {
			dataOps++
		}
	}
	if got := k1.Hierarchy().L1D(0).Stats.Accesses; dataOps != got {
		t.Fatalf("trace holds %d loads+stores, the recording machine made %d L1D accesses", dataOps, got)
	}

	// Replay run on a fresh, identical machine.
	k2, _ := machine()
	as2, err := workload.BuildSharedAS(k2, prof)
	if err != nil {
		t.Fatal(err)
	}
	rep := &ReplayProc{Records: recs}
	if _, err := k2.Spawn("rep", rep, as2, 0); err != nil {
		t.Fatal(err)
	}
	k2.Run(1 << 62)
	if rep.Replayed() != len(recs) {
		t.Fatalf("replayed %d/%d records", rep.Replayed(), len(recs))
	}

	for i, c1 := range k1.Hierarchy().Caches() {
		c2 := k2.Hierarchy().Caches()[i]
		if c1.Stats.Accesses != c2.Stats.Accesses ||
			c1.Stats.Hits != c2.Stats.Hits ||
			c1.Stats.Misses != c2.Stats.Misses {
			t.Fatalf("%s counters diverge: record %+v vs replay %+v",
				c1.Name(), c1.Stats, c2.Stats)
		}
	}
}
