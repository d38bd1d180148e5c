package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"timecache/internal/promtext"
	"timecache/internal/resultcache"
	"timecache/internal/stats"
)

// cachedConfig is the standard cache-enabled test server configuration.
func cachedConfig(workers int) Config {
	return Config{Workers: workers, Cache: resultcache.New(resultcache.WithMaxEntries(64))}
}

// submitHdr submits a spec and returns the status plus the cache header.
func submitHdr(t *testing.T, ts *httptest.Server, spec Spec) (Status, string) {
	t.Helper()
	st, resp := submit(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	return st, resp.Header.Get("X-Timecache-Cache")
}

// scrapeMetric fetches /metrics and returns one unlabeled sample's value.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	s := m.Sample(name)
	if s == nil {
		t.Fatalf("metrics missing %s", name)
	}
	return s.Value
}

// fetchCSV fetches a done job's CSV result.
func fetchCSV(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s: %s", id, resp.Status, body)
	}
	return body
}

// resultJSON fetches a done job's JSON result.
func resultJSON(t *testing.T, ts *httptest.Server, id string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode result json: %v", err)
	}
	return out
}

// TestCacheGoldenEquivalence is the cache's correctness anchor: a repeat
// submission is answered from the cache (header "hit"), its bytes are
// identical to the cold run's and to the checked-in golden artifact, its
// JSON result carries the producing run's resource snapshot — and none of
// the simulation metrics move, which proves nothing was simulated.
func TestCacheGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "golden", "table2_slice.csv"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, cachedConfig(2))
	spec := Spec{
		Experiment:    "table2",
		Pairs:         []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"},
		InstrsPerProc: 60_000,
		WarmupInstrs:  40_000,
	}
	cold, hdr := submitHdr(t, ts, spec)
	if hdr != "miss" {
		t.Fatalf("cold submit header = %q, want miss", hdr)
	}
	if final := waitTerminal(t, ts, cold.ID, 2*time.Minute); final.State != StateDone {
		t.Fatalf("cold job %s: %s", final.State, final.Error)
	}
	coldCSV := fetchCSV(t, ts, cold.ID)
	if !bytes.Equal(want, coldCSV) {
		t.Fatalf("cold result diverged from golden artifact\n--- want ---\n%s--- got ---\n%s", want, coldCSV)
	}

	cyclesBefore := scrapeMetric(t, ts, "timecache_sim_cycles_total")
	legsBefore := scrapeMetric(t, ts, "timecache_job_legs_total")

	// Equivalent spec, not an identical one: defaults spelled out differently
	// (the default LLC size written out instead of omitted) must map to the
	// same cache key.
	spec.LLCSizeKB = 2 << 10
	warm, hdr := submitHdr(t, ts, spec)
	if hdr != "hit" {
		t.Fatalf("repeat submit header = %q, want hit", hdr)
	}
	final := waitTerminal(t, ts, warm.ID, 10*time.Second)
	if final.State != StateDone {
		t.Fatalf("hit job %s: %s", final.State, final.Error)
	}
	if final.Cache != "hit" {
		t.Errorf("hit job Status.Cache = %q, want hit", final.Cache)
	}
	if final.Done != final.Total || final.Total == 0 {
		t.Errorf("hit job progress = %d/%d, want the producer's completed totals", final.Done, final.Total)
	}
	if got := fetchCSV(t, ts, warm.ID); !bytes.Equal(want, got) {
		t.Errorf("cached result diverged from golden artifact\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	res := resultJSON(t, ts, warm.ID)
	var resources struct {
		Legs uint64 `json:"legs"`
	}
	if err := json.Unmarshal(res["resources"], &resources); err != nil || resources.Legs == 0 {
		t.Errorf("hit job resources = %s (err %v), want the producing run's snapshot", res["resources"], err)
	}

	// The SSE history of a hit job is complete and terminal.
	events := readSSE(t, ts, warm.ID)
	last := events[len(events)-1]
	if last.Name != "state" || !strings.Contains(last.Data, `"state": "done"`) && !strings.Contains(last.Data, `"state":"done"`) {
		t.Errorf("hit job SSE trailer = %s %s, want a done state event", last.Name, last.Data)
	}

	// Nothing simulated: the sim counters are exactly where they were.
	if after := scrapeMetric(t, ts, "timecache_sim_cycles_total"); after != cyclesBefore {
		t.Errorf("sim cycles moved %v -> %v on a cache hit", cyclesBefore, after)
	}
	if after := scrapeMetric(t, ts, "timecache_job_legs_total"); after != legsBefore {
		t.Errorf("job legs moved %v -> %v on a cache hit", legsBefore, after)
	}
	if hits := scrapeMetric(t, ts, "timecache_result_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}
	if misses := scrapeMetric(t, ts, "timecache_result_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %v, want 1", misses)
	}
}

// TestCacheThunderingHerd is the singleflight requirement: 64 concurrent
// identical submissions cost exactly one simulation. A blocker job holds
// the single (gated) executor while the herd lands, so the herd's leader is
// still queued when every follower admits — the split is deterministically
// 1 miss + 63 coalesced. Every job (leader and followers) must reach done
// with the same result bytes, every SSE stream must terminate, and the
// metrics must account exactly one herd simulation.
func TestCacheThunderingHerd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const herd = 64
	s, ts := startServer(t, cachedConfig(0))
	gate := make(chan struct{})
	startGatedExecutor(s, gate)

	blockerSpec := smallSpec()
	blockerSpec.Pairs = []string{"2Xgobmk"}
	blocker, _ := submitHdr(t, ts, blockerSpec)
	waitRunning(t, ts, blocker.ID)

	spec := smallSpec()
	type sub struct {
		id   string
		disp string
	}
	subs := make([]sub, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := submit(t, ts, spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: %s", i, resp.Status)
				return
			}
			subs[i] = sub{id: st.ID, disp: resp.Header.Get("X-Timecache-Cache")}
		}(i)
	}
	wg.Wait()

	misses, coalesced := 0, 0
	var leaderID string
	for _, s := range subs {
		switch s.disp {
		case "miss":
			misses++
			leaderID = s.id
		case "coalesced":
			coalesced++
		default:
			t.Errorf("job %s disposition = %q", s.id, s.disp)
		}
	}
	if misses != 1 || coalesced != herd-1 {
		t.Fatalf("dispositions = %d miss / %d coalesced, want 1/%d", misses, coalesced, herd-1)
	}
	close(gate) // the blocker runs, then the herd's one simulation

	// Every SSE stream — follower or leader — must reach done and close.
	var sseWG sync.WaitGroup
	for _, s := range subs {
		sseWG.Add(1)
		go func(id string) {
			defer sseWG.Done()
			events := readSSE(t, ts, id)
			if len(events) == 0 {
				t.Errorf("job %s: empty SSE stream", id)
				return
			}
			last := events[len(events)-1]
			var st Status
			if err := json.Unmarshal([]byte(last.Data), &st); err != nil || st.State != StateDone {
				t.Errorf("job %s SSE trailer = %s %s, want done", id, last.Name, last.Data)
			}
		}(s.id)
	}
	sseWG.Wait()

	wantCSV := fetchCSV(t, ts, leaderID)
	for _, s := range subs {
		final := waitTerminal(t, ts, s.id, 30*time.Second)
		if final.State != StateDone {
			t.Fatalf("job %s: %s (%s)", s.id, final.State, final.Error)
		}
		if !bytes.Equal(wantCSV, fetchCSV(t, ts, s.id)) {
			t.Errorf("job %s result differs from the leader's", s.id)
		}
	}
	if final := waitTerminal(t, ts, blocker.ID, 2*time.Minute); final.State != StateDone {
		t.Fatalf("blocker %s: %s", final.State, final.Error)
	}

	// Exactly one herd simulation ran: total legs = blocker's + one job's.
	var blockerRes, leaderRes struct {
		Legs uint64 `json:"legs"`
	}
	if err := json.Unmarshal(resultJSON(t, ts, blocker.ID)["resources"], &blockerRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resultJSON(t, ts, leaderID)["resources"], &leaderRes); err != nil {
		t.Fatal(err)
	}
	wantLegs := float64(blockerRes.Legs + leaderRes.Legs)
	if got := scrapeMetric(t, ts, "timecache_job_legs_total"); got != wantLegs {
		t.Errorf("total legs = %v, want %v (blocker %d + one herd run %d)",
			got, wantLegs, blockerRes.Legs, leaderRes.Legs)
	}
	if got := scrapeMetric(t, ts, "timecache_result_cache_coalesced_total"); got != herd-1 {
		t.Errorf("coalesced counter = %v, want %d", got, herd-1)
	}
}

// TestCacheBypass: no_cache forces a fresh simulation and stores nothing —
// the next cacheable identical spec is still a miss.
func TestCacheBypass(t *testing.T) {
	_, ts := startServer(t, cachedConfig(1))
	spec := smallSpec()
	spec.NoCache = true
	st, hdr := submitHdr(t, ts, spec)
	if hdr != "bypass" {
		t.Fatalf("no_cache submit header = %q, want bypass", hdr)
	}
	if final := waitTerminal(t, ts, st.ID, time.Minute); final.State != StateDone {
		t.Fatalf("bypass job: %s (%s)", final.State, final.Error)
	}

	spec.NoCache = false
	st2, hdr := submitHdr(t, ts, spec)
	if hdr != "miss" {
		t.Errorf("first cacheable submit header = %q, want miss (bypass must not populate)", hdr)
	}
	if final := waitTerminal(t, ts, st2.ID, time.Minute); final.State != StateDone {
		t.Fatalf("miss job: %s (%s)", final.State, final.Error)
	}
	if bypass := scrapeMetric(t, ts, "timecache_result_cache_bypass_total"); bypass != 1 {
		t.Errorf("bypass counter = %v, want 1", bypass)
	}
}

// TestCacheOpsEndpoints covers /v1/cache/stats and DELETE /v1/cache: the
// stats reflect hits and residency, and a purge empties the store so the
// next identical spec misses again.
func TestCacheOpsEndpoints(t *testing.T) {
	_, ts := startServer(t, cachedConfig(1))
	st, _ := submitHdr(t, ts, smallSpec())
	waitTerminal(t, ts, st.ID, time.Minute)
	if _, hdr := submitHdr(t, ts, smallSpec()); hdr != "hit" {
		t.Fatalf("repeat header = %q, want hit", hdr)
	}

	var cacheStats struct {
		Enabled bool `json:"enabled"`
		Hits    int  `json:"hits"`
		Misses  int  `json:"misses"`
		Entries int  `json:"entries"`
	}
	resp, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cacheStats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !cacheStats.Enabled || cacheStats.Hits != 1 || cacheStats.Misses != 1 || cacheStats.Entries != 1 {
		t.Errorf("cache stats = %+v, want enabled with 1 hit / 1 miss / 1 entry", cacheStats)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var purged struct {
		Purged int `json:"purged"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&purged); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || purged.Purged != 1 {
		t.Errorf("purge: %s, purged %d, want 200 with 1", resp2.Status, purged.Purged)
	}
	st3, hdr := submitHdr(t, ts, smallSpec())
	if hdr != "miss" {
		t.Errorf("post-purge submit header = %q, want miss", hdr)
	}
	waitTerminal(t, ts, st3.ID, time.Minute)
}

// TestCacheDisabled: with no cache configured nothing changes — no header,
// no Status.Cache, stats report disabled, purge is a 404.
func TestCacheDisabled(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	st, resp := submit(t, ts, smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if hdr := resp.Header.Get("X-Timecache-Cache"); hdr != "" {
		t.Errorf("cache header on cacheless server = %q, want empty", hdr)
	}
	if st.Cache != "" {
		t.Errorf("Status.Cache on cacheless server = %q, want empty", st.Cache)
	}
	resp2, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Enabled bool `json:"enabled"`
	}
	json.NewDecoder(resp2.Body).Decode(&stats)
	resp2.Body.Close()
	if stats.Enabled {
		t.Error("cache stats report enabled on a cacheless server")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("purge on cacheless server: got %s, want 404", resp3.Status)
	}
	// The cache metric families still render, at zero.
	if v := scrapeMetric(t, ts, "timecache_result_cache_hits_total"); v != 0 {
		t.Errorf("cache hits on cacheless server = %v, want 0", v)
	}
}

// TestCacheLeaderCancelFailsFollowers pins the documented coalescing
// semantics when the leader never completes: cancelling a queued leader
// fails every follower with an error naming the leader (followers do not
// silently inherit a cancel they never asked for, and they do not hang).
func TestCacheLeaderCancelFailsFollowers(t *testing.T) {
	_, ts := startServer(t, cachedConfig(0)) // no workers: the leader stays queued
	leader, hdr := submitHdr(t, ts, smallSpec())
	if hdr != "miss" {
		t.Fatalf("leader header = %q, want miss", hdr)
	}
	follower, hdr := submitHdr(t, ts, smallSpec())
	if hdr != "coalesced" {
		t.Fatalf("follower header = %q, want coalesced", hdr)
	}
	if st := getStatus(t, ts, follower.ID); st.Cache != "coalesced" {
		t.Errorf("follower Status.Cache = %q, want coalesced", st.Cache)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+leader.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	lf := waitTerminal(t, ts, leader.ID, 10*time.Second)
	if lf.State != StateCancelled {
		t.Fatalf("leader state = %s, want cancelled", lf.State)
	}
	ff := waitTerminal(t, ts, follower.ID, 10*time.Second)
	if ff.State != StateFailed {
		t.Fatalf("follower state = %s (%s), want failed", ff.State, ff.Error)
	}
	if !strings.Contains(ff.Error, leader.ID) {
		t.Errorf("follower error = %q, want it to name leader %s", ff.Error, leader.ID)
	}
}

// TestCacheFollowerCancel: a follower can be cancelled individually without
// touching the leader or the other followers.
func TestCacheFollowerCancel(t *testing.T) {
	_, ts := startServer(t, cachedConfig(0))
	leader, _ := submitHdr(t, ts, smallSpec())
	follower, hdr := submitHdr(t, ts, smallSpec())
	if hdr != "coalesced" {
		t.Fatalf("follower header = %q, want coalesced", hdr)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+follower.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("follower cancel: %s", resp.Status)
	}
	ff := waitTerminal(t, ts, follower.ID, 10*time.Second)
	if ff.State != StateCancelled {
		t.Fatalf("follower state = %s, want cancelled", ff.State)
	}
	if st := getStatus(t, ts, leader.ID); st.State != StateQueued {
		t.Errorf("leader state after follower cancel = %s, want still queued", st.State)
	}
}

// TestCacheFollowerTimeout: a follower's own deadline fires independently of
// the leader's simulation.
func TestCacheFollowerTimeout(t *testing.T) {
	_, ts := startServer(t, cachedConfig(0))
	submitHdr(t, ts, smallSpec()) // leader, never runs (no workers)
	spec := smallSpec()
	spec.TimeoutMS = 50
	follower, hdr := submitHdr(t, ts, spec)
	if hdr != "coalesced" {
		// TimeoutMS must not split the cache key.
		t.Fatalf("follower header = %q, want coalesced", hdr)
	}
	ff := waitTerminal(t, ts, follower.ID, 10*time.Second)
	if ff.State != StateFailed || !strings.Contains(ff.Error, "deadline") {
		t.Fatalf("follower after deadline = %s (%q), want failed with deadline", ff.State, ff.Error)
	}
}

// TestCacheKeyEquivalence: specs that spell defaults differently share one
// cache entry; specs that differ in a result-affecting field do not.
func TestCacheKeyEquivalence(t *testing.T) {
	base := Spec{Experiment: "table2", Pairs: []string{"2Xlbm"}, InstrsPerProc: 20_000, WarmupInstrs: 10_000}
	equiv := base
	equiv.TimeoutMS = 9_999 // deadlines are result-invariant
	if base.cacheKey() != equiv.cacheKey() {
		t.Error("timeout split the cache key; it is result-invariant")
	}
	llcDefault := base
	llcDefault.LLCSizeKB = 2 << 10 // the default 2 MiB, spelled out
	if base.cacheKey() != llcDefault.cacheKey() {
		t.Error("explicit default LLC size split the cache key")
	}
	diff := base
	diff.InstrsPerProc = 20_001
	if base.cacheKey() == diff.cacheKey() {
		t.Error("instruction budget change did not move the cache key")
	}
	gl := base
	gl.GateLevel = true
	if base.cacheKey() == gl.cacheKey() {
		t.Error("gate-level routing change did not move the cache key")
	}
}

// gatedExecutor runs legs in process but holds each one until gate is
// closed, so a test's blocker job lasts exactly as long as the test wants,
// whatever the simulator's speed.
type gatedExecutor struct {
	inner legExecutor
	gate  <-chan struct{}
}

func (e gatedExecutor) runLeg(ctx context.Context, j *job, leg int) (*stats.Table, JobResources, error) {
	select {
	case <-e.gate:
	case <-ctx.Done():
		return nil, JobResources{}, context.Cause(ctx)
	}
	return e.inner.runLeg(ctx, j, leg)
}

// startGatedExecutor adds one executor held by gate to s, which must have
// been built with no in-process workers and not be draining yet.
func startGatedExecutor(s *Server, gate <-chan struct{}) {
	s.workers.Add(1)
	go s.executorLoop(gatedExecutor{inner: newInProcExecutor(s), gate: gate})
}

// jobByID returns the server's record of job id.
func jobByID(t *testing.T, s *Server, id string) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return j
}

// TestCacheHitOnceDone pins finalize's order: a leader completes its
// result-cache flight before it turns done, so an identical submission made
// after the job reads done is a hit, never a coalesce onto a finished
// flight. The test holds the server mutex, which finalize takes (to release
// the job's queue slot) after publishing the terminal state; while it is
// held, the job reads done and the cache must already answer its key.
func TestCacheHitOnceDone(t *testing.T) {
	s, ts := startServer(t, cachedConfig(0))
	gate := make(chan struct{})
	startGatedExecutor(s, gate)
	st, hdr := submitHdr(t, ts, smallSpec())
	if hdr != "miss" {
		t.Fatalf("first submit header = %q, want miss", hdr)
	}
	waitRunning(t, ts, st.ID)
	j := jobByID(t, s, st.ID)

	s.mu.Lock()
	close(gate)
	deadline := time.Now().Add(time.Minute)
	for {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state.Terminal() {
			if state != StateDone {
				s.mu.Unlock()
				t.Fatalf("job %s, want done", state)
			}
			break
		}
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	entry, flight, leader := s.cfg.Cache.Begin(j.flight.Key())
	if leader {
		s.cfg.Cache.Complete(flight, nil, errors.New("test admission"))
	}
	s.mu.Unlock()
	if entry == nil {
		t.Fatalf("job reads done but its key is not cached (leader=%v): the flight completes after the state turns terminal", leader)
	}
	if _, hdr := submitHdr(t, ts, smallSpec()); hdr != "hit" {
		t.Fatalf("resubmit after done: header = %q, want hit", hdr)
	}
}

// TestCacheDrainWaitsForFollowers: Drain must not return while a follower
// is still waiting on its leader; after Drain every job — leader, follower,
// blocker — is terminal. The blocker is held on a gated executor, not sized
// in simulated instructions, so the test does not depend on how fast the
// simulator runs (under the race detector, say).
func TestCacheDrainWaitsForFollowers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, ts := startServer(t, cachedConfig(0))
	gate := make(chan struct{})
	startGatedExecutor(s, gate)
	blockerSpec := smallSpec()
	blockerSpec.Pairs = []string{"2Xgobmk"}
	blocker, _ := submitHdr(t, ts, blockerSpec)
	waitRunning(t, ts, blocker.ID)
	leader, _ := submitHdr(t, ts, smallSpec())
	follower, hdr := submitHdr(t, ts, smallSpec())
	if hdr != "coalesced" {
		t.Fatalf("follower header = %q, want coalesced", hdr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) while the blocker still held the leader and its follower", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{blocker.ID, leader.ID, follower.ID} {
		st := getStatus(t, ts, id)
		if st.State != StateDone {
			t.Errorf("job %s = %s (%s) after drain, want done", id, st.State, st.Error)
		}
	}
}
