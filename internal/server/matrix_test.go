package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"timecache/internal/defense"
	"timecache/internal/harness"
)

// TestMatrixGoldenEquivalence runs the full defense×attack matrix over HTTP
// against a cache-enabled server: the cold run's bytes must match the
// checked-in golden artifact (so the HTTP path, the CLI, and the in-process
// dispatch all render one result), and an identical resubmission must be
// answered from the result cache without simulating anything.
func TestMatrixGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "golden", "matrix.csv"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, cachedConfig(4))
	spec := Spec{
		Experiment:    "matrix",
		AttackBits:    12,
		InstrsPerProc: 60_000,
		WarmupInstrs:  40_000,
	}
	cold, hdr := submitHdr(t, ts, spec)
	if hdr != "miss" {
		t.Fatalf("cold submit header = %q, want miss", hdr)
	}
	if final := waitTerminal(t, ts, cold.ID, 2*time.Minute); final.State != StateDone {
		t.Fatalf("cold matrix job %s: %s", final.State, final.Error)
	}
	if got := fetchCSV(t, ts, cold.ID); !bytes.Equal(want, got) {
		t.Fatalf("HTTP matrix result diverged from golden artifact\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	cyclesBefore := scrapeMetric(t, ts, "timecache_sim_cycles_total")

	warm, hdr := submitHdr(t, ts, spec)
	if hdr != "hit" {
		t.Fatalf("repeat submit header = %q, want hit", hdr)
	}
	if final := waitTerminal(t, ts, warm.ID, 10*time.Second); final.State != StateDone {
		t.Fatalf("hit matrix job %s: %s", final.State, final.Error)
	}
	if got := fetchCSV(t, ts, warm.ID); !bytes.Equal(want, got) {
		t.Errorf("cached matrix result diverged from golden artifact\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if after := scrapeMetric(t, ts, "timecache_sim_cycles_total"); after != cyclesBefore {
		t.Errorf("sim cycles moved %v -> %v on a matrix cache hit", cyclesBefore, after)
	}
}

// TestMatrixValidation: malformed matrix specs are rejected at admission
// with a 400, never enqueued.
func TestMatrixValidation(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	bad := []Spec{
		{Experiment: "matrix", Defenses: []string{"no-such-defense"}},
		{Experiment: "matrix", Attacks: []string{"no-such-attack"}},
		{Experiment: "matrix", AttackBits: -1},
		{Experiment: "matrix", Pairs: []string{"no-such-pair"}},
	}
	for i, spec := range bad {
		_, resp := submit(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d admitted with %s, want 400", i, resp.Status)
		}
	}
}

// TestMatrixProgress: the matrix job reports per-cell progress over SSE —
// Total is the number of grid legs and Done reaches it.
func TestMatrixProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := startServer(t, Config{Workers: 1})
	spec := Spec{
		Experiment:    "matrix",
		Defenses:      []string{"none", "timecache"},
		Attacks:       []string{"smt", "coherence"},
		AttackBits:    8,
		InstrsPerProc: 20_000,
		WarmupInstrs:  10_000,
	}
	st, resp := submit(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	final := waitTerminal(t, ts, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("matrix job %s: %s", final.State, final.Error)
	}
	// 2 defenses × 2 attacks + 2 perf legs (none is already requested).
	if final.Total == 0 || final.Done != final.Total {
		t.Errorf("matrix progress = %d/%d, want a complete nonzero count", final.Done, final.Total)
	}
	events := readSSE(t, ts, st.ID)
	progress := 0
	for _, ev := range events {
		if ev.Name == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("matrix job emitted no SSE progress events")
	}
}

// TestJobRunMemo: the legs of one job share its run memo across executors.
// The ablation's seven legs all normalize against one baseline run, so the
// job simulates seven runs, not thirteen: its account equals an in-process
// RunJob's, six runs are memo hits on /metrics, and each hit is a leg span
// marked memo: true in the job's trace.
func TestJobRunMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := startServer(t, Config{Workers: 4})
	spec := Spec{Experiment: "ablation", Pairs: []string{"2Xgobmk"}, InstrsPerProc: 20_000, WarmupInstrs: 10_000}
	st, _ := submit(t, ts, spec)
	if final := waitTerminal(t, ts, st.ID, 2*time.Minute); final.State != StateDone {
		t.Fatalf("ablation job %s: %s", final.State, final.Error)
	}
	account := &harness.ResourceAccount{}
	opts := spec.options()
	opts.Account = account
	want, err := harness.RunJob(spec.harnessJob(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchCSV(t, ts, st.ID); string(got) != want.CSV() {
		t.Errorf("HTTP ablation diverged from RunJob\n--- want ---\n%s--- got ---\n%s", want.CSV(), got)
	}
	kinds := len(defense.Kinds())
	if res := account.Snapshot(); res.Legs != uint64(kinds) {
		t.Errorf("RunJob accounted %d runs, want %d", res.Legs, kinds)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Resources *JobResources `json:"resources"`
	}
	err = json.NewDecoder(resp.Body).Decode(&result)
	resp.Body.Close()
	if err != nil || result.Resources == nil {
		t.Fatalf("result JSON resources: %v", err)
	}
	if result.Resources.Resources != account.Snapshot() {
		t.Errorf("HTTP resources = %+v, RunJob's = %+v", result.Resources.Resources, account.Snapshot())
	}
	if got := scrapeMetric(t, ts, "timecache_run_memo_hits_total"); got != float64(kinds-1) {
		t.Errorf("timecache_run_memo_hits_total = %v, want %d", got, kinds-1)
	}
	hits := 0
	for _, ev := range getTrace(t, ts, st.ID).TraceEvents {
		if ev.Cat == "leg" && ev.Args["memo"] == true {
			hits++
		}
	}
	if hits != kinds-1 {
		t.Errorf("trace has %d memo leg spans, want %d", hits, kinds-1)
	}
}
