package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"timecache/internal/clock"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
	"timecache/internal/stats"
)

// pinExecutor is a deterministic stand-in for the simulator: every leg
// renders a one-row table naming its pair, and its resource account carries
// a run counter, so two runs of one spec (around a cache purge) report
// different resources. The spec's Tenant — free-form and outside the cache
// key — steers it: "fail" fails every leg, "hold" holds every leg until its
// context ends, "hold1" holds every leg after the first, and "retry" fails
// the first leg's first run as a broken worker would (retryably).
type pinExecutor struct {
	runs *int
}

func (e pinExecutor) runLeg(ctx context.Context, j *job, leg int) (*stats.Table, JobResources, error) {
	switch {
	case j.spec.Tenant == "fail":
		return nil, JobResources{}, errors.New("pin: injected leg failure")
	case j.spec.Tenant == "retry" && leg == 0 && j.status().Attempt == 0:
		return nil, JobResources{}, retryableError{errors.New("pin: injected worker failure")}
	case j.spec.Tenant == "hold", j.spec.Tenant == "hold1" && leg > 0:
		<-ctx.Done()
		return nil, JobResources{}, context.Cause(ctx)
	}
	*e.runs++
	tab := stats.NewTable("pair", "leg", "run")
	tab.Add(j.spec.Pairs[leg], leg, *e.runs)
	var res JobResources
	res.Legs = 1
	res.Instructions = uint64(1000 * (leg + 1))
	res.SimCycles = uint64(2500 * (leg + 1))
	res.PoolHits = uint64(*e.runs)
	return tab, res, nil
}

// pinSpec is a table2 spec over pairs; the pin executor never simulates it.
func pinSpec(pairs ...string) Spec {
	return Spec{Experiment: "table2", Pairs: pairs, InstrsPerProc: 20_000, WarmupInstrs: 10_000}
}

// pinHistory journals a mixed history on a live server and returns the log
// as the server left it when it "crashed": done jobs that repeat keys
// (hits), a key re-run after a purge with different resources, failed,
// cancelled and no_cache jobs, and a three-leg job that crashed after its
// first leg with a coalesced follower attached. One hit's result record is
// dropped, so replay resumes that job and finishes it from the cache.
func pinHistory(t *testing.T) jobstore.Store {
	return journalPinHistory(t, false)
}

// armedClock is a fake clock that reports the delay of every timer it arms,
// so a test advances past a retry's backoff only once the retry is armed.
type armedClock struct {
	*clock.Fake
	armed chan time.Duration
}

func (c armedClock) AfterFunc(d time.Duration, f func()) clock.WallTimer {
	tm := c.Fake.AfterFunc(d, f)
	c.armed <- d
	return tm
}

// journalPinHistory is pinHistory, with two more cases when crashCases is
// set: a job whose first leg ran twice (attempt 1), and a purge followed by
// a new leader for a spec the log holds done, which the crash leaves queued.
func journalPinHistory(t *testing.T, crashCases bool) jobstore.Store {
	t.Helper()
	store := jobstore.NewMem()
	// The history arms one timer, the retry's backoff.
	fake := armedClock{clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)), make(chan time.Duration, 1)}
	s, ts := crashServer(t, Config{Workers: 0, Cache: resultcache.New(), Store: store, Clock: fake})
	runs := 0
	s.workers.Add(1)
	go s.executorLoop(pinExecutor{runs: &runs})

	step := func(spec Spec, want string) string {
		t.Helper()
		fake.Advance(time.Second)
		st, hdr := submitHdr(t, ts, spec)
		if hdr != want {
			t.Fatalf("submit %+v: disposition %q, want %q", spec, hdr, want)
		}
		return st.ID
	}
	finish := func(id string, want State) {
		t.Helper()
		j := jobByID(t, s, id)
		select {
		case <-j.doneCh:
		case <-time.After(time.Minute):
			t.Fatalf("job %s never finished", id)
		}
		if st := j.status(); st.State != want {
			t.Fatalf("job %s: %s (%s), want %s", id, st.State, st.Error, want)
		}
	}
	// waitRecord polls the log until job id has a record that match admits.
	waitRecord := func(id string, match func(jobstore.Record) bool) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			found := false
			store.Replay(func(r jobstore.Record) error {
				found = found || r.JobID == id && match(r)
				return nil
			})
			if found {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s: record never journaled", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	event := func(name, substr string) func(jobstore.Record) bool {
		return func(r jobstore.Record) bool {
			var e struct {
				Name string          `json:"name"`
				Data json.RawMessage `json:"data"`
			}
			return r.Kind == jobstore.KindEvent && json.Unmarshal(r.Payload, &e) == nil &&
				e.Name == name && strings.Contains(string(e.Data), substr)
		}
	}

	a, b, c := pinSpec("2Xlbm", "2Xgobmk"), pinSpec("2Xgobmk"), pinSpec("leslie+gobmk")
	finish(step(a, "miss"), StateDone)
	finish(step(a, "hit"), StateDone)
	finish(step(b, "miss"), StateDone)
	lostResult := step(a, "hit")
	finish(lostResult, StateDone)
	purge := func() {
		t.Helper()
		fake.Advance(time.Second)
		resp, err := http.DefaultClient.Do(mustRequest(t, http.MethodDelete, ts.URL+"/v1/cache"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// A purge makes the next submission of a re-run: same key, new
	// resources.
	purge()
	finish(step(a, "miss"), StateDone)
	finish(step(b, "miss"), StateDone)
	finish(step(c, "miss"), StateDone)
	finish(step(a, "hit"), StateDone)
	finish(step(c, "hit"), StateDone)

	failing := pinSpec("2Xlbm")
	failing.Tenant = "fail"
	finish(step(failing, "miss"), StateFailed)

	held := pinSpec("leslie+gobmk", "2Xlbm")
	held.Tenant = "hold"
	cancelled := step(held, "miss")
	waitRecord(cancelled, event("state", `"state":"running"`))
	fake.Advance(time.Second)
	resp, err := http.DefaultClient.Do(mustRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+cancelled))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	finish(cancelled, StateCancelled)

	bypass := a
	bypass.NoCache = true
	finish(step(bypass, "bypass"), StateDone)

	if crashCases {
		retried := pinSpec("2Xgobmk", "2Xlbm")
		retried.Tenant = "retry"
		id := step(retried, "miss")
		select {
		case backoff := <-fake.armed:
			fake.Advance(backoff)
		case <-time.After(time.Minute):
			t.Fatalf("job %s: retry never armed", id)
		}
		finish(id, StateDone)
		if st := jobByID(t, s, id).status(); st.Attempt != 1 {
			t.Fatalf("retried job %s: attempt %d, want 1", id, st.Attempt)
		}
	}

	resumed := pinSpec("2Xgobmk", "leslie+gobmk", "2Xlbm")
	resumed.Tenant = "hold1"
	leader := step(resumed, "miss")
	waitRecord(leader, event("progress", `"done":1`))
	follower := resumed
	follower.Tenant = "other"
	step(follower, "coalesced")
	finish(step(b, "hit"), StateDone)
	if crashCases {
		// The held leg blocks the one executor, so this leader stays
		// queued; a restart finds its spec's result in the log.
		purge()
		step(c, "miss")
	}
	store.Freeze()
	// Unblock the held leg; the frozen log records none of it.
	if resp, err := http.DefaultClient.Do(mustRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+leader)); err == nil {
		resp.Body.Close()
	}

	return copyStore(t, store, func(r jobstore.Record) bool {
		return !(r.JobID == lostResult && r.Kind == jobstore.KindResult)
	})
}

func mustRequest(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// pinTranscript restarts a server over a copy of log with the given cache
// and renders everything a client can read back: the job list, every job's
// status, result in all three formats and SSE history, the cache
// statistics, and the dispositions of the next submissions.
func pinTranscript(t *testing.T, log jobstore.Store, cache *resultcache.Cache) string {
	t.Helper()
	fake := clock.NewFake(time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC))
	s, ts := crashServer(t, Config{Workers: 0, Cache: cache, Store: copyStore(t, log, nil), Clock: fake})
	var out bytes.Buffer
	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== GET %s -> %d %s\n%s\n", path, resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}

	get("/v1/jobs")
	get("/v1/cache/stats")
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		get("/v1/jobs/" + id)
		for _, format := range []string{"csv", "md", "json"} {
			get("/v1/jobs/" + id + "/result?format=" + format)
		}
		j := jobByID(t, s, id)
		hist, _, unsub := j.events.subscribe()
		unsub()
		fmt.Fprintf(&out, "== history %s (%d events)\n", id, len(hist))
		for _, ev := range hist {
			fmt.Fprintf(&out, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		}
		if j.status().State.Terminal() {
			get("/v1/jobs/" + id + "/events")
		}
	}

	a, b, c := pinSpec("2Xlbm", "2Xgobmk"), pinSpec("2Xgobmk"), pinSpec("leslie+gobmk")
	resumed := pinSpec("2Xgobmk", "leslie+gobmk", "2Xlbm")
	bypass := a
	bypass.NoCache = true
	for _, spec := range []Spec{a, b, c, resumed, pinSpec("2Xlbm"), bypass} {
		fake.Advance(time.Second)
		st, resp := submit(t, ts, spec)
		body, _ := json.Marshal(st)
		fmt.Fprintf(&out, "== POST %v -> %d cache=%q\n%s\n", spec.Pairs, resp.StatusCode,
			resp.Header.Get("X-Timecache-Cache"), body)
	}
	get("/v1/cache/stats")
	get("/v1/jobs")
	return out.String()
}

// TestReplayPinned pins what a restarted daemon serves from a mixed log,
// byte for byte, on an unbounded result cache and on one smaller than the
// number of distinct done keys (so replay's seeding evicts). The expected
// transcripts under testdata/ were recorded before replay shared decoded
// tables and cache entries between jobs; any change to what a client can
// read back after a restart fails here.
func TestReplayPinned(t *testing.T) {
	log := pinHistory(t)
	for _, tc := range []struct {
		name  string
		cache *resultcache.Cache
	}{
		{"unbounded", resultcache.New()},
		{"bounded", resultcache.New(resultcache.WithMaxEntries(2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := pinTranscript(t, log, tc.cache)
			path := filepath.Join("testdata", "replay_pin_"+tc.name+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range gotLines {
					if i >= len(wantLines) || gotLines[i] != wantLines[i] {
						w := "<end>"
						if i < len(wantLines) {
							w = wantLines[i]
						}
						t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", path, i+1, gotLines[i], w)
					}
				}
				t.Fatalf("%s: transcript is %d lines, want %d", path, len(gotLines), len(wantLines))
			}
		})
	}
}

// TestReplayCountsNoAdmissions: a restart re-admits the log's live jobs (a
// resumed leader, its orphaned follower, a hit finished from a seeded
// entry) without moving the result cache's admission counters, so before
// any client submits, /v1/cache/stats reads 0 hits, misses and coalesced.
func TestReplayCountsNoAdmissions(t *testing.T) {
	log := pinHistory(t)
	cache := resultcache.New()
	fake := clock.NewFake(time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC))
	_, ts := crashServer(t, Config{Workers: 0, Cache: cache, Store: copyStore(t, log, nil), Clock: fake})
	resp, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st resultcache.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || st.InFlight == 0 {
		t.Fatalf("replay neither seeded nor re-led anything: %+v", st)
	}
	if st.Hits != 0 || st.Misses != 0 || st.Coalesced != 0 {
		t.Errorf("restart with no traffic counted admissions: hits=%d misses=%d coalesced=%d, want 0/0/0",
			st.Hits, st.Misses, st.Coalesced)
	}
}

// replayView renders what a client can read back from s without changing
// it: the job list, and every job's status, result in all three formats and
// SSE history.
func replayView(s *Server) string {
	var out bytes.Buffer
	get := func(path string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		fmt.Fprintf(&out, "== GET %s -> %d\n%s\n", path, rec.Code, rec.Body)
	}
	get("/v1/jobs")
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		get("/v1/jobs/" + id)
		for _, format := range []string{"csv", "md", "json"} {
			get("/v1/jobs/" + id + "/result?format=" + format)
		}
		s.mu.Lock()
		hist, _, unsub := s.jobs[id].events.subscribe()
		s.mu.Unlock()
		unsub()
		for _, ev := range hist {
			fmt.Fprintf(&out, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		}
	}
	return out.String()
}

// TestReplayCrashPrefixes restarts on every prefix of a journaled history,
// as a crash after each record would leave the log. At every cut:
//
//  1. every job that replays terminal ends its SSE history with a state
//     event reading exactly the status the job serves, so a client that
//     watched the stream and one that polls agree;
//  2. replay is a fold of its own log: a second restart, over the log the
//     first restarted server left, serves the same read-only view.
func TestReplayCrashPrefixes(t *testing.T) {
	var recs []jobstore.Record
	journalPinHistory(t, true).Replay(func(r jobstore.Record) error {
		recs = append(recs, r)
		return nil
	})
	restart := func(log jobstore.Store) *Server {
		s := New(Config{Workers: 0, Cache: resultcache.New(), Store: log,
			Clock: clock.NewFake(time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC))})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		t.Cleanup(func() { s.Drain(ctx) }) // hard-stops what replay re-queued
		return s
	}
	for n := 0; n <= len(recs); n++ {
		prefix := jobstore.NewMem()
		for _, r := range recs[:n] {
			prefix.Append(r)
		}
		at := "empty log"
		if n > 0 {
			at = fmt.Sprintf("cut after record %d (%s of %s)", n, recs[n-1].Kind, recs[n-1].JobID)
		}
		first := restart(prefix)
		first.mu.Lock()
		jobs := make([]*job, 0, len(first.order))
		for _, id := range first.order {
			jobs = append(jobs, first.jobs[id])
		}
		first.mu.Unlock()
		for _, j := range jobs {
			st := j.status()
			if !st.State.Terminal() {
				continue
			}
			hist, _, unsub := j.events.subscribe()
			unsub()
			if len(hist) == 0 || hist[len(hist)-1].name != "state" || string(hist[len(hist)-1].data) != string(mustJSON(st)) {
				last := "no events"
				if len(hist) > 0 {
					last = fmt.Sprintf("%s %s", hist[len(hist)-1].name, hist[len(hist)-1].data)
				}
				t.Fatalf("%s: job %s replays %s, but its history ends with %s", at, j.id, st.State, last)
			}
		}
		view := replayView(first)
		if again := replayView(restart(copyStore(t, prefix, nil))); again != view {
			a, b := strings.Split(view, "\n"), strings.Split(again, "\n")
			for i := range a {
				if i >= len(b) || a[i] != b[i] {
					t.Fatalf("%s: second restart diverges at view line %d\nfirst:  %s\nsecond: %s", at, i+1, a[i], b[min(i, len(b)-1)])
				}
			}
			t.Fatalf("%s: second restart's view is longer", at)
		}
	}
}
