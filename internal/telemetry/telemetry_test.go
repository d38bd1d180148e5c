package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/kernel"
	"timecache/internal/mem"
	"timecache/internal/workload"
)

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 200, 222} {
		h.Observe(v)
	}
	cases := []struct {
		bucket int
		want   uint64
	}{
		{0, 1}, // {0}
		{1, 1}, // {1}
		{2, 2}, // [2,3]
		{3, 2}, // [4,7]
		{4, 1}, // [8,15]
		{8, 2}, // [128,255]
	}
	for _, c := range cases {
		if got := h.Buckets[c.bucket]; got != c.want {
			t.Errorf("bucket %d = %d, want %d", c.bucket, got, c.want)
		}
	}
	if h.Count != 9 || h.Min != 0 || h.Max != 222 {
		t.Errorf("count/min/max = %d/%d/%d", h.Count, h.Min, h.Max)
	}
	if lo, hi := BucketBounds(8); lo != 128 || hi != 255 {
		t.Errorf("BucketBounds(8) = [%d,%d]", lo, hi)
	}
	if lo, hi := BucketBounds(0); lo != 0 || hi != 0 {
		t.Errorf("BucketBounds(0) = [%d,%d]", lo, hi)
	}
	// Every value must land in the bucket whose bounds contain it.
	for _, v := range []uint64{0, 1, 5, 63, 64, 1 << 40} {
		b := BucketOf(v)
		lo, hi := BucketBounds(b)
		if v < lo || v > hi {
			t.Errorf("value %d in bucket %d with bounds [%d,%d]", v, b, lo, hi)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(2) // L1 hits
	}
	h.Observe(222) // one miss
	if q := h.Quantile(0.5); q < 2 || q > 3 {
		t.Errorf("p50 = %d, want within the hit bucket [2,3]", q)
	}
	if q := h.Quantile(0.999); q != 222 {
		t.Errorf("p99.9 = %d, want 222 (clamped to observed max)", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean must be 0")
	}
}

func TestClassify(t *testing.T) {
	if Classify(cache.Result{Hit: true}) != ClassHit {
		t.Error("hit")
	}
	if Classify(cache.Result{}) != ClassMiss {
		t.Error("miss")
	}
	if Classify(cache.Result{FirstAccess: true}) != ClassFirstAccess {
		t.Error("first access")
	}
}

// buildMachine constructs a small two-process machine under mode.
func buildMachine(t *testing.T, mode cache.SecMode, instrs uint64) *kernel.Kernel {
	t.Helper()
	hcfg := cache.DefaultHierarchyConfig()
	hcfg.Mode = mode
	kcfg := kernel.DefaultConfig()
	kcfg.SliceCycles = 50_000 // frequent switches so the trace has spans
	k := kernel.New(kcfg, cache.NewHierarchy(hcfg), mem.NewPhysical(8192, hcfg.DRAMLat))
	prof, err := workload.Spec("lbm")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := workload.Spawn(k, prof, workload.SpawnOptions{Instrs: instrs, Seed: uint64(1001 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

func TestSamplerWindows(t *testing.T) {
	const instrs, every = 20_000, 1_000
	k := buildMachine(t, cache.SecTimeCache, instrs)
	col := New(Config{SampleEvery: every}).Attach(k)
	k.Run(1 << 62)
	if !k.AllExited() {
		t.Fatal("did not finish")
	}
	col.Sampler().Flush()
	samples := col.Sampler().Samples()

	// 2 procs x 20k instrs at one step per instruction = 40 windows.
	want := int(2 * instrs / every)
	if len(samples) < want-1 || len(samples) > want+1 {
		t.Fatalf("got %d samples, want ~%d", len(samples), want)
	}
	var total uint64
	prevEnd := uint64(0)
	for i, s := range samples {
		if s.Index != i {
			t.Errorf("sample %d has index %d", i, s.Index)
		}
		if s.EndCycle < prevEnd {
			t.Errorf("sample %d: EndCycle went backwards (%d < %d)", i, s.EndCycle, prevEnd)
		}
		prevEnd = s.EndCycle
		total += s.Instrs
		if s.IPC < 0 || s.L1HitRate < 0 || s.L1HitRate > 1 {
			t.Errorf("sample %d: implausible rates %+v", i, s)
		}
	}
	// Window deltas must tile the whole run: no instruction counted twice
	// or dropped.
	if total != 2*instrs {
		t.Fatalf("samples cover %d instructions, want %d", total, 2*instrs)
	}
	// A flush with no residual steps must not add an empty sample.
	n := len(samples)
	col.Sampler().Flush()
	if len(col.Sampler().Samples()) != n {
		t.Error("second Flush added a sample")
	}
}

func TestSamplerPerProcessIPC(t *testing.T) {
	k := buildMachine(t, cache.SecOff, 10_000)
	col := New(Config{SampleEvery: 4_000}).Attach(k)
	k.Run(1 << 62)
	col.Sampler().Flush()
	samples := col.Sampler().Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	seen := map[int]bool{}
	for _, s := range samples {
		for _, p := range s.PerProc {
			seen[p.PID] = true
			if p.Name == "" {
				t.Errorf("process %d has no name", p.PID)
			}
			if p.Cycles > 0 && p.IPC <= 0 {
				t.Errorf("process %d ran %d cycles with IPC %f", p.PID, p.Cycles, p.IPC)
			}
		}
	}
	if len(seen) != 2 {
		t.Fatalf("per-process samples cover %d processes, want 2", len(seen))
	}
}

func TestTraceJSONValidity(t *testing.T) {
	k := buildMachine(t, cache.SecTimeCache, 20_000)
	col := New(Config{}).Attach(k)
	k.Run(1 << 62)

	b, err := col.Trace().JSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	var sched, book, run int
	for _, e := range f.TraceEvents {
		if e.Ph != "X" && e.Ph != "i" && e.Ph != "M" {
			t.Errorf("unexpected phase %q", e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Errorf("negative time in %+v", e)
		}
		switch e.Cat {
		case "sched":
			sched++
		case "timecache":
			book++
		case "run":
			run++
		}
	}
	if sched == 0 || run == 0 {
		t.Fatalf("trace missing spans: %d sched, %d run", sched, run)
	}
	// TimeCache mode charges s-bit bookkeeping inside every switch.
	if book != sched {
		t.Fatalf("%d bookkeeping sub-spans for %d switches", book, sched)
	}

	// Baseline mode must emit no bookkeeping sub-spans.
	k2 := buildMachine(t, cache.SecOff, 20_000)
	col2 := New(Config{}).Attach(k2)
	k2.Run(1 << 62)
	for _, e := range col2.Trace().events {
		if e.Cat == "timecache" {
			t.Fatal("baseline trace contains bookkeeping spans")
		}
	}
}

func TestCollectorFinishWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SampleEvery:  5_000,
		MetricsCSV:   filepath.Join(dir, "m.csv"),
		HistogramCSV: filepath.Join(dir, "h.csv"),
		TraceJSON:    filepath.Join(dir, "t.json"),
		ManifestJSON: filepath.Join(dir, "run.json"),
	}
	k := buildMachine(t, cache.SecTimeCache, 20_000)
	col := New(cfg).Attach(k)
	col.SetMeta("seed", 1001)
	k.Run(1 << 62)
	if err := col.Finish(); err != nil {
		t.Fatal(err)
	}

	// Metrics CSV parses and is non-empty.
	mb, err := os.ReadFile(cfg.MetricsCSV)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(string(mb))).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV unparseable: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("metrics CSV has %d rows, want header + samples", len(recs))
	}

	// Histogram CSV parses.
	hb, err := os.ReadFile(cfg.HistogramCSV)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csv.NewReader(strings.NewReader(string(hb))).ReadAll(); err != nil {
		t.Fatalf("histogram CSV unparseable: %v", err)
	}

	// Trace JSON is valid.
	tb, err := os.ReadFile(cfg.TraceJSON)
	if err != nil {
		t.Fatal(err)
	}
	var anyJSON map[string]any
	if err := json.Unmarshal(tb, &anyJSON); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}

	// Manifest round-trips with counters and meta.
	var m Manifest
	rb, err := os.ReadFile(cfg.ManifestJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rb, &m); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m.Machine.Mode != "timecache" || m.Counters.MaxCycle == 0 || len(m.Counters.Caches) != 3 {
		t.Fatalf("manifest content wrong: %+v", m)
	}
	if len(m.Counters.Processes) != 2 || m.Counters.Processes[0].Instructions == 0 {
		t.Fatalf("manifest processes wrong: %+v", m.Counters.Processes)
	}
	if m.Meta["seed"] == nil {
		t.Error("manifest meta lost")
	}
	if m.Samples == 0 || m.TraceEvents == 0 {
		t.Errorf("manifest telemetry counts: %d samples, %d events", m.Samples, m.TraceEvents)
	}
}

func TestConfigWithSuffix(t *testing.T) {
	c := Config{MetricsCSV: "out/m.csv", TraceJSON: "t.json", ManifestJSON: "noext"}
	s := c.WithSuffix("2Xlbm_timecache")
	if s.MetricsCSV != "out/m_2Xlbm_timecache.csv" {
		t.Errorf("MetricsCSV = %q", s.MetricsCSV)
	}
	if s.TraceJSON != "t_2Xlbm_timecache.json" {
		t.Errorf("TraceJSON = %q", s.TraceJSON)
	}
	if s.ManifestJSON != "noext_2Xlbm_timecache" {
		t.Errorf("ManifestJSON = %q", s.ManifestJSON)
	}
	if s.HistogramCSV != "" {
		t.Errorf("empty path must stay empty, got %q", s.HistogramCSV)
	}
}

func TestTraceAccessesInstantEvents(t *testing.T) {
	k := buildMachine(t, cache.SecOff, 2_000)
	col := New(Config{TraceAccesses: true}).Attach(k)
	k.Run(1 << 62)
	instants := 0
	for _, e := range col.Trace().events {
		if e.Ph == "i" && e.Cat == "access" {
			instants++
		}
	}
	if instants == 0 {
		t.Fatal("TraceAccesses produced no instant events")
	}
}
