package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"timecache/internal/clock"
	"timecache/internal/harness"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
)

// multiLegSpec is a three-pair table2 job: three independent legs at the
// small test budget.
func multiLegSpec() Spec {
	return Spec{
		Experiment:    "table2",
		Pairs:         []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"},
		InstrsPerProc: 20_000,
		WarmupInstrs:  10_000,
	}
}

// copyStore rebuilds src's live records in a fresh Mem, keeping only the
// records keep admits (nil keeps everything). Tests use it to hand a
// "crashed" server's log to a fresh server, optionally simulating records
// that were lost or compacted away.
func copyStore(t *testing.T, src jobstore.Store, keep func(jobstore.Record) bool) *jobstore.Mem {
	t.Helper()
	dst := jobstore.NewMem()
	err := src.Replay(func(r jobstore.Record) error {
		if keep != nil && !keep(r) {
			return nil
		}
		return dst.Append(r)
	})
	if err != nil {
		t.Fatalf("copy store: %v", err)
	}
	return dst
}

// crashServer builds a server without the drain cleanup startServer
// registers: the test abandons it, simulating a process that died.
func crashServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestRestartReplaysTerminalJob: a finished job must come back from the log
// read-only — same state, same result bytes, same SSE event history — and
// count toward the replay metric.
func TestRestartReplaysTerminalJob(t *testing.T) {
	store := jobstore.NewMem()
	_, ts1 := crashServer(t, Config{Workers: 2, Store: store})
	st, resp := submit(t, ts1, multiLegSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if final := waitTerminal(t, ts1, st.ID, time.Minute); final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	wantCSV := fetchCSV(t, ts1, st.ID)
	wantSSE := readSSE(t, ts1, st.ID)

	_, ts2 := startServer(t, Config{Workers: 2, Store: copyStore(t, store, nil)})
	got := getStatus(t, ts2, st.ID)
	if got.State != StateDone {
		t.Fatalf("replayed state = %s, want done", got.State)
	}
	if gotCSV := fetchCSV(t, ts2, st.ID); !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("replayed CSV diverged\n--- want ---\n%s--- got ---\n%s", wantCSV, gotCSV)
	}
	gotSSE := readSSE(t, ts2, st.ID)
	if len(gotSSE) != len(wantSSE) {
		t.Fatalf("replayed SSE stream has %d events, want %d", len(gotSSE), len(wantSSE))
	}
	for i := range wantSSE {
		if gotSSE[i] != wantSSE[i] {
			t.Errorf("SSE event %d diverged: got %+v, want %+v", i, gotSSE[i], wantSSE[i])
		}
	}
	if n := scrapeMetric(t, ts2, "timecache_jobstore_replayed_jobs_total"); n < 1 {
		t.Errorf("replayed_jobs_total = %v, want >= 1", n)
	}
	// Simulating nothing on replay is the point: the restarted server's
	// resource counters stay zero until a genuinely new job runs.
	if n := scrapeMetric(t, ts2, "timecache_sim_cycles_total"); n != 0 {
		t.Errorf("sim_cycles_total after replay = %v, want 0", n)
	}
}

// TestRestartResumesQueuedJob: a job accepted but never started (crashed
// before any executor picked it up) re-enters the queue on restart and
// finishes with the same bytes a healthy run produces. Uses the real disk
// store so the file round-trip is exercised end to end.
func TestRestartResumesQueuedJob(t *testing.T) {
	// Reference bytes from a storeless run.
	_, ref := startServer(t, Config{Workers: 2})
	rst, _ := submit(t, ref, multiLegSpec())
	if final := waitTerminal(t, ref, rst.ID, time.Minute); final.State != StateDone {
		t.Fatalf("reference run: %s (%s)", final.State, final.Error)
	}
	wantCSV := fetchCSV(t, ref, rst.ID)

	dir := t.TempDir()
	storeA, err := jobstore.Open(dir, jobstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Workers: 0 — the job is accepted and journaled but no executor ever
	// claims it, pinning the crashed-while-queued shape deterministically.
	_, tsA := crashServer(t, Config{Workers: 0, Store: storeA})
	st, resp := submit(t, tsA, multiLegSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if got := getStatus(t, tsA, st.ID); got.State != StateQueued {
		t.Fatalf("pre-crash state = %s, want queued", got.State)
	}
	if err := storeA.Close(); err != nil {
		t.Fatal(err)
	}

	storeB, err := jobstore.Open(dir, jobstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { storeB.Close() })
	_, tsB := startServer(t, Config{Workers: 2, Store: storeB})
	final := waitTerminal(t, tsB, st.ID, time.Minute)
	if final.State != StateDone {
		t.Fatalf("resumed state = %s (%s), want done", final.State, final.Error)
	}
	if gotCSV := fetchCSV(t, tsB, st.ID); !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("resumed CSV diverged\n--- want ---\n%s--- got ---\n%s", wantCSV, gotCSV)
	}
	// New submissions must not collide with replayed ids.
	st2, _ := submit(t, tsB, smallSpec())
	if st2.ID == st.ID {
		t.Errorf("post-restart submission reused id %s", st2.ID)
	}
}

// TestReplayLegacyJobsField: a log written before Spec lost its "jobs"
// field (within-leg parallelism) still replays. The field is ignored, and
// the resumed job renders the bytes a fresh submission of the same spec
// does.
func TestReplayLegacyJobsField(t *testing.T) {
	_, ref := startServer(t, Config{Workers: 1})
	rst, _ := submit(t, ref, smallSpec())
	if final := waitTerminal(t, ref, rst.ID, time.Minute); final.State != StateDone {
		t.Fatalf("reference run: %s (%s)", final.State, final.Error)
	}
	wantCSV := fetchCSV(t, ref, rst.ID)

	store := jobstore.NewMem()
	payload := `{"spec":{"experiment":"table2","pairs":["2Xlbm"],"instrs_per_proc":20000,` +
		`"warmup_instrs":10000,"jobs":4},"created":"2026-01-02T03:04:05Z","legs":1}`
	if err := store.Append(jobstore.Record{Kind: jobstore.KindAccepted, JobID: "job-000007", Payload: []byte(payload)}); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Workers: 1, Store: store})
	final := waitTerminal(t, ts, "job-000007", time.Minute)
	if final.State != StateDone {
		t.Fatalf("replayed legacy job: %s (%s), want done", final.State, final.Error)
	}
	if gotCSV := fetchCSV(t, ts, "job-000007"); !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("legacy job CSV diverged\n--- want ---\n%s--- got ---\n%s", wantCSV, gotCSV)
	}
}

// TestReplayKeyMismatchReruns: replay trusts a job's journaled work only
// under the key it was admitted with. A log written before accepted records
// carried the key holds a done table2 job defended by fase and an
// unfinished one with a leg recorded; that build ran TimeCache for both.
// After a restart the done job seeds no cache entry, so resubmitting its
// spec is a miss that runs fase, and the unfinished job re-runs its
// recorded leg.
func TestReplayKeyMismatchReruns(t *testing.T) {
	done := Spec{Experiment: "table2", Pairs: []string{"2Xlbm"}, Defenses: []string{"fase"},
		InstrsPerProc: 20_000, WarmupInstrs: 10_000}
	resumed := done
	resumed.Pairs = []string{"2Xnamd"}
	store := jobstore.NewMem()
	for _, r := range []struct {
		kind    jobstore.Kind
		id, rec string
	}{
		{jobstore.KindAccepted, "job-000001", `{"spec":` + string(mustJSON(done)) + `,"created":"2026-01-02T03:04:05Z","cache":"miss"}`},
		{jobstore.KindResult, "job-000001", `{"state":"done","done":1,"total":1,"started":"2026-01-02T03:04:05Z",` +
			`"finished":"2026-01-02T03:04:06Z","header":["workload","normalized"],"rows":[["2Xlbm","1.0782"]]}`},
		{jobstore.KindAccepted, "job-000002", `{"spec":` + string(mustJSON(resumed)) + `,"created":"2026-01-02T03:04:07Z","cache":"miss"}`},
		{jobstore.KindLeg, "job-000002", `{"leg":0,"header":["workload","normalized"],"rows":[["2Xnamd","1.0001"]]}`},
	} {
		if err := store.Append(jobstore.Record{Kind: r.kind, JobID: r.id, Payload: []byte(r.rec)}); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := startServer(t, Config{Workers: 1, Cache: resultcache.New(), Store: store})

	want := func(spec Spec) string {
		tab, err := harness.RunJob(spec.harnessJob(), spec.options())
		if err != nil {
			t.Fatal(err)
		}
		return tab.CSV()
	}
	if final := waitTerminal(t, ts, "job-000002", time.Minute); final.State != StateDone {
		t.Fatalf("resumed job: %s (%s), want done", final.State, final.Error)
	}
	if got, want := string(fetchCSV(t, ts, "job-000002")), want(resumed); got != want {
		t.Errorf("resumed job kept its recorded leg\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	st, hdr := submitHdr(t, ts, done)
	if hdr != "miss" {
		t.Fatalf("resubmitted fase spec: disposition %q, want miss", hdr)
	}
	if final := waitTerminal(t, ts, st.ID, time.Minute); final.State != StateDone {
		t.Fatalf("resubmitted job: %s (%s), want done", final.State, final.Error)
	}
	if got, want := string(fetchCSV(t, ts, st.ID)), want(done); got != want {
		t.Errorf("resubmitted fase job\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestRestartResumesMidRunJob: a job that crashed with some legs journaled
// resumes at its first unfinished leg — only the missing legs re-run, and
// the merged result is byte-identical.
func TestRestartResumesMidRunJob(t *testing.T) {
	store := jobstore.NewMem()
	_, ts1 := crashServer(t, Config{Workers: 1, Store: store})
	st, _ := submit(t, ts1, multiLegSpec())
	if final := waitTerminal(t, ts1, st.ID, time.Minute); final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	wantCSV := fetchCSV(t, ts1, st.ID)

	// Simulate the crash landing between leg completions: drop the terminal
	// result record and leg 1's checkpoint, keeping legs 0 and 2.
	crashed := copyStore(t, store, func(r jobstore.Record) bool {
		if r.Kind == jobstore.KindResult {
			return false
		}
		if r.Kind == jobstore.KindLeg {
			var lr struct {
				Leg int `json:"leg"`
			}
			if err := json.Unmarshal(r.Payload, &lr); err != nil {
				t.Fatalf("leg record: %v", err)
			}
			return lr.Leg != 1
		}
		return true
	})

	_, ts2 := startServer(t, Config{Workers: 2, Store: crashed})
	final := waitTerminal(t, ts2, st.ID, time.Minute)
	if final.State != StateDone {
		t.Fatalf("resumed state = %s (%s), want done", final.State, final.Error)
	}
	if gotCSV := fetchCSV(t, ts2, st.ID); !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("resumed CSV diverged\n--- want ---\n%s--- got ---\n%s", wantCSV, gotCSV)
	}
	// Exactly the one missing leg re-ran.
	if n := scrapeMetric(t, ts2, "timecache_legs_completed_total"); n != 1 {
		t.Errorf("legs_completed_total after resume = %v, want 1 (one leg re-run)", n)
	}
}

// TestCacheHitAfterRestart: a done job's result re-seeds the cache on
// replay, so resubmitting its spec after a restart is a hit that simulates
// nothing — the restarted server's sim-cycle counter stays zero.
func TestCacheHitAfterRestart(t *testing.T) {
	store := jobstore.NewMem()
	cfgA := cachedConfig(2)
	cfgA.Store = store
	_, ts1 := crashServer(t, cfgA)
	st, hdr := submitHdr(t, ts1, smallSpec())
	if hdr != "miss" {
		t.Fatalf("cold submit header = %q, want miss", hdr)
	}
	if final := waitTerminal(t, ts1, st.ID, time.Minute); final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	wantCSV := fetchCSV(t, ts1, st.ID)

	cfgB := cachedConfig(2) // fresh, empty cache: only replay can fill it
	cfgB.Store = copyStore(t, store, nil)
	_, ts2 := startServer(t, cfgB)
	st2, hdr2 := submitHdr(t, ts2, smallSpec())
	if hdr2 != "hit" {
		t.Fatalf("post-restart submit header = %q, want hit", hdr2)
	}
	if final := waitTerminal(t, ts2, st2.ID, 10*time.Second); final.State != StateDone {
		t.Fatalf("hit job state = %s, want done", final.State)
	}
	if gotCSV := fetchCSV(t, ts2, st2.ID); !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("cached CSV diverged from pre-crash bytes")
	}
	if n := scrapeMetric(t, ts2, "timecache_sim_cycles_total"); n != 0 {
		t.Errorf("sim_cycles_total = %v, want 0 (hit must not re-simulate)", n)
	}
	if n := scrapeMetric(t, ts2, "timecache_legs_completed_total"); n != 0 {
		t.Errorf("legs_completed_total = %v, want 0 (hit must not dispatch legs)", n)
	}
}

// TestCoalescedReplay: after a crash that left a leader+follower pair
// queued, replay re-admits the leader as leader and re-coalesces the
// follower; if the leader's records died with the crash, the orphaned
// follower is re-led and completes on its own.
func TestCoalescedReplay(t *testing.T) {
	store := jobstore.NewMem()
	cfgA := cachedConfig(0) // no executors: both jobs stay pre-run forever
	cfgA.Store = store
	_, ts1 := crashServer(t, cfgA)
	leader, hdr1 := submitHdr(t, ts1, smallSpec())
	follower, hdr2 := submitHdr(t, ts1, smallSpec())
	if hdr1 != "miss" || hdr2 != "coalesced" {
		t.Fatalf("submit headers = %q, %q; want miss, coalesced", hdr1, hdr2)
	}

	t.Run("leader survives", func(t *testing.T) {
		cfgB := cachedConfig(2)
		cfgB.Store = copyStore(t, store, nil)
		_, ts2 := startServer(t, cfgB)
		stL := waitTerminal(t, ts2, leader.ID, time.Minute)
		stF := waitTerminal(t, ts2, follower.ID, time.Minute)
		if stL.State != StateDone || stF.State != StateDone {
			t.Fatalf("states = %s/%s (%s/%s), want done/done", stL.State, stF.State, stL.Error, stF.Error)
		}
		if stF.Cache != "coalesced" {
			t.Errorf("follower disposition = %q, want coalesced", stF.Cache)
		}
		if !bytes.Equal(fetchCSV(t, ts2, leader.ID), fetchCSV(t, ts2, follower.ID)) {
			t.Error("leader and follower results diverged after replay")
		}
	})

	t.Run("leader lost", func(t *testing.T) {
		cfgB := cachedConfig(2)
		cfgB.Store = copyStore(t, store, func(r jobstore.Record) bool {
			return r.JobID != leader.ID
		})
		_, ts2 := startServer(t, cfgB)
		st := waitTerminal(t, ts2, follower.ID, time.Minute)
		if st.State != StateDone {
			t.Fatalf("re-led follower state = %s (%s), want done", st.State, st.Error)
		}
		// The orphan was promoted: it led its own flight instead of waiting
		// forever on a leader that no longer exists.
		if st.Cache != "miss" {
			t.Errorf("re-led follower disposition = %q, want miss", st.Cache)
		}
	})
}

// TestWorkerCountDeterminism: the same job renders byte-identical results
// whether its legs run on one executor or race across four.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := map[string]Spec{
		"table2": multiLegSpec(),
		"llc-sweep": {Experiment: "llc-sweep", Pairs: []string{"2Xlbm", "2Xgobmk"},
			LLCSizesKB: []int{512, 1024}, InstrsPerProc: 20_000, WarmupInstrs: 10_000},
		"ablation": {Experiment: "ablation", Pairs: []string{"2Xlbm"},
			InstrsPerProc: 20_000, WarmupInstrs: 10_000},
		"matrix": {Experiment: "matrix", Pairs: []string{"2Xlbm"},
			Defenses: []string{"none", "timecache"}, Attacks: []string{"smt", "coherence"},
			AttackBits: 8, InstrsPerProc: 20_000, WarmupInstrs: 10_000},
	}
	results := map[int]map[string][]byte{}
	for _, workers := range []int{1, 4} {
		_, ts := startServer(t, Config{Workers: workers})
		results[workers] = map[string][]byte{}
		for name, spec := range specs {
			st, resp := submit(t, ts, spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s @%d workers: submit %s", name, workers, resp.Status)
			}
			if final := waitTerminal(t, ts, st.ID, 2*time.Minute); final.State != StateDone {
				t.Fatalf("%s @%d workers: %s (%s)", name, workers, final.State, final.Error)
			}
			results[workers][name] = fetchCSV(t, ts, st.ID)
		}
	}
	for name := range specs {
		if !bytes.Equal(results[1][name], results[4][name]) {
			t.Errorf("%s: -workers 1 and -workers 4 rendered different bytes\n--- 1 ---\n%s--- 4 ---\n%s",
				name, results[1][name], results[4][name])
		}
	}
}

// TestRemoteWorkerEquivalence: a coordinator whose only executors are
// spawned worker daemons (the /v1/legs protocol) renders the same bytes as
// the in-process pool.
func TestRemoteWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ref := startServer(t, Config{Workers: 2})
	worker := httptest.NewServer(NewWorker(WorkerConfig{}))
	t.Cleanup(worker.Close)
	_, remote := startServer(t, Config{Workers: 0, WorkerAddrs: []string{worker.URL, worker.URL}})

	for name, spec := range map[string]Spec{
		"table2": multiLegSpec(),
		"matrix": {Experiment: "matrix", Pairs: []string{"2Xlbm"},
			Defenses: []string{"none", "timecache"}, Attacks: []string{"smt", "coherence"},
			AttackBits: 8, InstrsPerProc: 20_000, WarmupInstrs: 10_000},
	} {
		rst, _ := submit(t, ref, spec)
		if final := waitTerminal(t, ref, rst.ID, 2*time.Minute); final.State != StateDone {
			t.Fatalf("%s in-process: %s (%s)", name, final.State, final.Error)
		}
		wst, resp := submit(t, remote, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s remote: submit %s", name, resp.Status)
		}
		final := waitTerminal(t, remote, wst.ID, 2*time.Minute)
		if final.State != StateDone {
			t.Fatalf("%s remote: %s (%s)", name, final.State, final.Error)
		}
		want := fetchCSV(t, ref, rst.ID)
		got := fetchCSV(t, remote, wst.ID)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: remote workers rendered different bytes\n--- in-proc ---\n%s--- remote ---\n%s",
				name, want, got)
		}
	}
	// Remote legs carry their resource accounts home over the wire.
	if n := scrapeMetric(t, remote, "timecache_sim_cycles_total"); n == 0 {
		t.Error("remote coordinator sim_cycles_total = 0, want > 0 (accounts lost on the wire)")
	}
}

// TestLegRetryExhaustion: a leg whose executors fail retryably (worker
// unreachable) is retried on the fake clock's backoff up to MaxLegAttempts,
// then the job fails with the transport error.
func TestLegRetryExhaustion(t *testing.T) {
	fake := clock.NewFake(time.Time{})
	_, ts := startServer(t, Config{
		Workers:        0,
		WorkerAddrs:    []string{"http://127.0.0.1:1"}, // nothing listens here
		Clock:          fake,
		MaxLegAttempts: 3,
		RetryBackoff:   time.Second,
	})
	st, resp := submit(t, ts, smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	deadline := time.Now().Add(30 * time.Second)
	var final Status
	for {
		final = getStatus(t, ts, st.ID)
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s; attempts=%d", final.State, final.Attempt)
		}
		fake.Advance(time.Second) // fire any pending retry backoff
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "worker") {
		t.Errorf("error = %q, want the transport failure", final.Error)
	}
	if final.Attempt != 2 {
		t.Errorf("attempt = %d, want 2 (3 dispatches, 2 retries)", final.Attempt)
	}
	if n := scrapeMetric(t, ts, "timecache_leg_retries_total"); n != 2 {
		t.Errorf("leg_retries_total = %v, want 2", n)
	}
}

// TestLeaseExpiryReissuesLeg: a worker that hangs loses its lease on the
// fake clock; the leg is re-issued, the replacement run's result stands,
// and the job still finishes done.
func TestLeaseExpiryReissuesLeg(t *testing.T) {
	real := NewWorker(WorkerConfig{})
	var calls atomic.Int64
	firstArrived := make(chan struct{})
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && calls.Add(1) == 1 {
			// Drain the body first: the server only notices the client
			// abandoning the request (and cancels r.Context) once the
			// request body has been consumed.
			io.Copy(io.Discard, r.Body)
			close(firstArrived)
			select {
			case <-r.Context().Done(): // the coordinator abandoned us
			case <-time.After(time.Minute): // safety net: never wedge Close
			}
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)

	fake := clock.NewFake(time.Time{})
	_, ts := startServer(t, Config{
		Workers:      0,
		WorkerAddrs:  []string{worker.URL},
		Clock:        fake,
		LeaseTimeout: 30 * time.Second,
	})
	st, _ := submit(t, ts, smallSpec())
	select {
	case <-firstArrived:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never saw the first leg")
	}
	fake.Advance(31 * time.Second) // expire the lease
	final := waitTerminal(t, ts, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Attempt != 1 {
		t.Errorf("attempt = %d, want 1 (one lease lost)", final.Attempt)
	}
	if n := scrapeMetric(t, ts, "timecache_leases_expired_total"); n != 1 {
		t.Errorf("leases_expired_total = %v, want 1", n)
	}
}

// TestTenantQuota: per-tenant token buckets refill on the injected clock;
// one tenant exhausting its burst neither blocks another tenant nor is
// locked out once the bucket refills.
func TestTenantQuota(t *testing.T) {
	fake := clock.NewFake(time.Time{})
	_, ts := startServer(t, Config{Workers: 0, Clock: fake, QuotaBurst: 2, QuotaRate: 1})
	spec := smallSpec()
	spec.Tenant = "alice"
	for i := 0; i < 2; i++ {
		if _, resp := submit(t, ts, spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("alice submit %d: %s", i, resp.Status)
		}
	}
	_, resp := submit(t, ts, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over-quota submit: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("over-quota 429 missing Retry-After")
	}
	spec.Tenant = "bob"
	if _, resp := submit(t, ts, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submit: %s (quotas must be per-tenant)", resp.Status)
	}
	fake.Advance(time.Second) // refill alice by one token
	spec.Tenant = "alice"
	if _, resp := submit(t, ts, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice post-refill submit: %s", resp.Status)
	}
	if n := scrapeMetric(t, ts, "timecache_quota_rejected_total"); n != 1 {
		t.Errorf("quota_rejected_total = %v, want 1", n)
	}
}

// TestPrioritySubmitValidation: the priority field is validated, surfaced in
// status, and defaults to normal.
func TestPrioritySubmitValidation(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	spec := smallSpec()
	spec.Priority = "urgent"
	if _, resp := submit(t, ts, spec); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid priority: %s, want 400", resp.Status)
	}
	spec.Priority = "high"
	spec.Tenant = "ops"
	st, resp := submit(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("high-priority submit: %s", resp.Status)
	}
	got := getStatus(t, ts, st.ID)
	if got.Priority != "high" || got.Tenant != "ops" {
		t.Errorf("status = priority %q tenant %q, want high/ops", got.Priority, got.Tenant)
	}
	st2, _ := submit(t, ts, smallSpec())
	if got := getStatus(t, ts, st2.ID); got.Priority != "normal" || got.Tenant != "default" {
		t.Errorf("default status = priority %q tenant %q, want normal/default", got.Priority, got.Tenant)
	}
}

// TestSchedPriorityOrder: the scheduler claims every high-priority leg
// before any normal leg, FIFO within a class, and hands a multi-leg job's
// legs out in leg order.
func TestSchedPriorityOrder(t *testing.T) {
	sc := newSched()
	mk := func(id string, prio int, legs int) *job {
		j := newJob(id, Spec{}, time.Time{})
		j.priority = prio
		j.initLegs(legs)
		return j
	}
	n1 := mk("n1", priorityNormal, 1)
	hi := mk("hi", priorityHigh, 2)
	n2 := mk("n2", priorityNormal, 1)
	sc.enqueue(n1)
	sc.enqueue(hi)
	sc.enqueue(n2)
	var got []string
	for i := 0; i < 4; i++ {
		j, leg, _, ok := sc.next()
		if !ok {
			t.Fatalf("next %d: scheduler closed early", i)
		}
		got = append(got, fmt.Sprintf("%s/%d", j.id, leg))
	}
	want := []string{"hi/0", "hi/1", "n1/0", "n2/0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim order = %v, want %v", got, want)
		}
	}
	sc.close()
	if _, _, _, ok := sc.next(); ok {
		t.Error("next after close+drain returned a leg")
	}
}

// TestListPagination: GET /v1/jobs pages with ?limit= and ?after=, keeping
// submission order and returning a resume cursor while truncated.
func TestListPagination(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	var ids []string
	for i := 0; i < 5; i++ {
		st, resp := submit(t, ts, smallSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		ids = append(ids, st.ID)
	}
	page := func(query string) (got []string, next string, code int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, "", resp.StatusCode
		}
		var out struct {
			Jobs []Status `json:"jobs"`
			Next string   `json:"next"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		for _, st := range out.Jobs {
			got = append(got, st.ID)
		}
		return got, out.Next, resp.StatusCode
	}

	got, next, _ := page("?limit=2")
	if len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] {
		t.Fatalf("page 1 = %v, want %v", got, ids[:2])
	}
	if next != ids[1] {
		t.Fatalf("page 1 next = %q, want %q", next, ids[1])
	}
	got, next, _ = page("?limit=2&after=" + next)
	if len(got) != 2 || got[0] != ids[2] || got[1] != ids[3] {
		t.Fatalf("page 2 = %v, want %v", got, ids[2:4])
	}
	got, next, _ = page("?limit=2&after=" + next)
	if len(got) != 1 || got[0] != ids[4] || next != "" {
		t.Fatalf("page 3 = %v next=%q, want [%s] and no cursor", got, next, ids[4])
	}
	if all, _, _ := page(""); len(all) != 5 {
		t.Fatalf("unpaginated list = %d jobs, want 5", len(all))
	}
	if _, _, code := page("?limit=zero"); code != http.StatusBadRequest {
		t.Errorf("limit=zero → %d, want 400", code)
	}
	if _, _, code := page("?limit=-1"); code != http.StatusBadRequest {
		t.Errorf("limit=-1 → %d, want 400", code)
	}
	if _, _, code := page("?after=job-999999"); code != http.StatusBadRequest {
		t.Errorf("unknown cursor → %d, want 400", code)
	}
}

// TestStoreCompaction: compaction drops terminal jobs' intermediate records
// but keeps replay-complete histories; with StoreRetain it also evicts the
// oldest terminal jobs from the log and the job table.
func TestStoreCompaction(t *testing.T) {
	store := jobstore.NewMem()
	cfg := Config{Workers: 1, Store: store, StoreRetain: 1}
	_, ts := startServer(t, cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		spec := smallSpec()
		spec.Seed = uint64(i + 1) // distinct specs; no cache configured anyway
		st, _ := submit(t, ts, spec)
		if final := waitTerminal(t, ts, st.ID, time.Minute); final.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, final.State, final.Error)
		}
		ids = append(ids, st.ID)
	}
	before := store.Stats()

	resp, err := http.Post(ts.URL+"/v1/store/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %s", resp.Status)
	}
	var out struct {
		Records     uint64 `json:"records"`
		Compactions uint64 `json:"compactions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if after.Records >= before.Records {
		t.Errorf("records %d -> %d: compaction dropped nothing", before.Records, after.Records)
	}
	if after.Compactions == 0 {
		t.Error("compactions counter did not move")
	}
	// Retention kept only the newest terminal job, in the table and the log.
	if r, err := http.Get(ts.URL + "/v1/jobs/" + ids[0]); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s still listed: %s", ids[0], r.Status)
		}
	}
	if r, err := http.Get(ts.URL + "/v1/jobs/" + ids[2]); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("retained job %s: %s", ids[2], r.Status)
		}
	}

	// The compacted log still replays the retained job byte-identically.
	want := fetchCSV(t, ts, ids[2])
	_, ts2 := startServer(t, Config{Workers: 1, Store: copyStore(t, store, nil)})
	if got := fetchCSV(t, ts2, ids[2]); !bytes.Equal(got, want) {
		t.Error("retained job's result diverged after compaction + replay")
	}
	if r, err := http.Get(ts2.URL + "/v1/jobs/" + ids[0]); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s resurrected by replay: %s", ids[0], r.Status)
		}
	}
}

// TestStoreCompactWithoutStore: the endpoint 404s when no store is wired.
func TestStoreCompactWithoutStore(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	resp, err := http.Post(ts.URL+"/v1/store/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("compact without store: %s, want 404", resp.Status)
	}
}
