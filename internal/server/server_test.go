package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"timecache/internal/clock"
)

// smallSpec is a seconds-scale single-pair job: two modes at 20k measured
// instructions each.
func smallSpec() Spec {
	return Spec{
		Experiment:    "table2",
		Pairs:         []string{"2Xlbm"},
		InstrsPerProc: 20_000,
		WarmupInstrs:  10_000,
	}
}

// longSpec runs long enough (hundreds of ms) that a test can reliably
// observe it mid-run.
func longSpec() Spec {
	return Spec{
		Experiment:    "table2",
		Pairs:         []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"},
		InstrsPerProc: 3_000_000,
		WarmupInstrs:  100_000,
	}
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec Spec) (Status, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", id, resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, within time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, st.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed frame from the events stream.
type sseEvent struct {
	Name string
	Data string
}

// readSSE consumes the whole event stream (the server closes it when the
// job reaches a terminal state) and returns the parsed frames.
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: %s", id, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Name != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	return out
}

// TestLifecycle is the end-to-end happy path: submit → SSE stream shows
// queued → running → done with progress in between → result retrievable in
// all three formats and consistent with /v1/jobs.
func TestLifecycle(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	st, resp := submit(t, ts, smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}

	events := readSSE(t, ts, st.ID)
	var states []string
	sawProgress := false
	for _, ev := range events {
		switch ev.Name {
		case "state":
			var s Status
			if err := json.Unmarshal([]byte(ev.Data), &s); err != nil {
				t.Fatalf("state event %q: %v", ev.Data, err)
			}
			states = append(states, string(s.State))
		case "progress":
			sawProgress = true
		}
	}
	if len(states) == 0 || states[len(states)-1] != string(StateDone) {
		t.Fatalf("SSE states = %v, want trailing done", states)
	}
	if !sawProgress {
		t.Error("SSE stream carried no progress events")
	}

	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.Done != final.Total || final.Total == 0 {
		t.Errorf("progress = %d/%d, want complete", final.Done, final.Total)
	}

	for _, format := range []string{"csv", "md", "json"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result format=%s: %s", format, resp.Status)
		}
		if format == "csv" && !strings.HasPrefix(string(body), "workload,normalized") {
			t.Errorf("csv result starts %q", string(body)[:min(40, len(body))])
		}
	}

	resp2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}
}

// TestSubmitValidation: malformed and invalid specs are rejected with 400
// before touching the queue.
func TestSubmitValidation(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	for _, body := range []string{
		`{`,
		`{"experiment":"nope"}`,
		`{"experiment":"table2","pairs":["nope"]}`,
		`{"experiment":"table2","bogus_field":1}`,
		`{"experiment":"table2","jobs":2}`, // "jobs" is no longer a Spec field
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: got %s, want 400", body, resp.Status)
		}
	}
}

// TestBackpressure pins the admission contract: with no workers draining
// the queue, QueueDepth jobs are accepted and the next is rejected with
// 429 + Retry-After, without losing the accepted ones.
func TestBackpressure(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0, QueueDepth: 2, RetryAfter: 7})
	var accepted []string
	for i := 0; i < 2; i++ {
		st, resp := submit(t, ts, smallSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		accepted = append(accepted, st.ID)
	}
	_, resp := submit(t, ts, smallSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want 7", ra)
	}
	for _, id := range accepted {
		if st := getStatus(t, ts, id); st.State != StateQueued {
			t.Errorf("accepted job %s state = %s, want queued", id, st.State)
		}
	}
	// The rejected job must not appear in the list.
	resp2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	json.NewDecoder(resp2.Body).Decode(&list)
	if len(list.Jobs) != 2 {
		t.Errorf("job list has %d entries, want 2", len(list.Jobs))
	}
}

// TestConcurrentSubmitRollback pins the queue-full rollback under
// concurrent submission: a rejected job must remove its own id from the
// registry, never a concurrently accepted one. The old positional rollback
// (truncate the last element of s.order) could delete the id of a submit
// that registered in between, leaving a dangling id that made GET /v1/jobs
// panic and the accepted job vanish from the listing. The specs carry a
// timeout so the rejection path also exercises the deadline-goroutine
// release (a rejected job's doneCh never closes; the goroutine must exit
// via the cancelled context instead of leaking).
func TestConcurrentSubmitRollback(t *testing.T) {
	spec := smallSpec()
	spec.TimeoutMS = 60_000
	base := runtime.NumGoroutine()
	const rounds, submitters = 10, 8
	for round := 0; round < rounds; round++ {
		s := New(Config{Workers: 0, QueueDepth: 1})
		ts := httptest.NewServer(s.Handler())
		ids := make([]string, submitters)
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st, resp := submit(t, ts, spec)
				switch resp.StatusCode {
				case http.StatusAccepted:
					ids[i] = st.ID
				case http.StatusTooManyRequests:
				default:
					t.Errorf("round %d submit %d: %s", round, i, resp.Status)
				}
			}(i)
		}
		wg.Wait()
		want := map[string]bool{}
		for _, id := range ids {
			if id != "" {
				want[id] = true
			}
		}
		if len(want) != 1 {
			t.Fatalf("round %d: %d jobs accepted, want 1", round, len(want))
		}
		// The listing must contain exactly the accepted ids — a dangling
		// order entry panics the handler (the client sees a dropped
		// connection rather than a 200).
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatalf("round %d list: %v", round, err)
		}
		var list struct {
			Jobs []Status `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatalf("round %d decode list: %v", round, err)
		}
		resp.Body.Close()
		if len(list.Jobs) != len(want) {
			t.Fatalf("round %d: listed %d jobs, want %d", round, len(list.Jobs), len(want))
		}
		for _, st := range list.Jobs {
			if !want[st.ID] {
				t.Errorf("round %d: listing has %s, not an accepted job", round, st.ID)
			}
		}
		// Release this round's resources so the final goroutine count only
		// sees leaks: cancelling the accepted job closes its doneCh (its
		// deadline goroutine exits), and closing the server tears down the
		// HTTP connections.
		for id := range want {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		ts.Close()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Drain(dctx)
		dcancel()
	}
	// Every rejected job's deadline goroutine must have exited via its
	// cancelled context (a rejected job's doneCh never closes). Before the
	// fix ~70 goroutines survived here.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+20 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d; rejected-job deadline goroutines leaked",
				base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelQueued: DELETE on a job no worker has picked up moves it
// straight to cancelled.
func TestCancelQueued(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	st, _ := submit(t, ts, smallSpec())
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s", resp.Status)
	}
	if st := getStatus(t, ts, st.ID); st.State != StateCancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	// Result is a 409, and a second DELETE reports the conflict too.
	resp2, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: got %s, want 409", resp2.Status)
	}
}

// TestCancelRunning: DELETE while the simulation is mid-run interrupts the
// machine (kernel-level interrupt poll) and lands the job in cancelled,
// fast — not after the job would have finished.
func TestCancelRunning(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	st, _ := submit(t, ts, longSpec())
	// Wait until a worker has it.
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, st.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancelAt := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	final := waitTerminal(t, ts, st.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("state after mid-run cancel = %s (%s)", final.State, final.Error)
	}
	if took := time.Since(cancelAt); took > 5*time.Second {
		t.Errorf("cancellation took %s; interrupt did not cut the run short", took)
	}
}

// waitRunning polls until a worker has picked the job up.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobTimeout: a per-job deadline expires the job into failed (not
// cancelled — the distinction is the cancellation cause). The deadline is
// driven entirely by the injected fake clock: no matter how fast or slow the
// machine runs the simulation, the job cannot fail until Advance crosses the
// timeout, and must fail after.
func TestJobTimeout(t *testing.T) {
	fake := clock.NewFake(time.Time{})
	_, ts := startServer(t, Config{Workers: 1, Clock: fake})
	spec := longSpec()
	spec.TimeoutMS = 60_000
	st, _ := submit(t, ts, spec)
	waitRunning(t, ts, st.ID)
	if got := getStatus(t, ts, st.ID); got.State != StateRunning {
		t.Fatalf("before Advance: state = %s, want running", got.State)
	}
	fake.Advance(61 * time.Second)
	final := waitTerminal(t, ts, st.ID, 15*time.Second)
	if final.State != StateFailed {
		t.Fatalf("state after timeout = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("timeout error = %q, want a deadline message", final.Error)
	}
}

// TestJobTimeoutNotPremature: advancing the fake clock to just short of the
// deadline must not fail the job — it runs to completion.
func TestJobTimeoutNotPremature(t *testing.T) {
	fake := clock.NewFake(time.Time{})
	_, ts := startServer(t, Config{Workers: 1, Clock: fake})
	spec := smallSpec()
	spec.TimeoutMS = 60_000
	st, _ := submit(t, ts, spec)
	fake.Advance(59 * time.Second)
	final := waitTerminal(t, ts, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done under an unexpired deadline", final.State, final.Error)
	}
}

// TestDrain pins the graceful-drain contract: after Drain returns, every
// accepted job has reached a terminal state (none silently dropped), new
// submissions get 503, and readiness reports draining.
func TestDrain(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 6; i++ {
		st, resp := submit(t, ts, smallSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st := getStatus(t, ts, id)
		if st.State != StateDone {
			t.Errorf("job %s = %s (%s) after graceful drain, want done", id, st.State, st.Error)
		}
	}
	if _, resp := submit(t, ts, smallSpec()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: got %s, want 503", resp.Status)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: got %s, want 503", resp.Status)
	}
}

// TestDrainHardStop: when the drain grace period expires mid-run, jobs are
// hard-cancelled — they still reach a terminal state rather than being
// dropped. The grace period is measured on the injected fake clock
// (DrainWithGrace), so the hard-stop fires when the test advances time, not
// when the wall does.
func TestDrainHardStop(t *testing.T) {
	fake := clock.NewFake(time.Time{})
	s, ts := startServer(t, Config{Workers: 1, Clock: fake})
	st, _ := submit(t, ts, longSpec())
	waitRunning(t, ts, st.ID)
	errCh := make(chan error, 1)
	go func() { errCh <- s.DrainWithGrace(5 * time.Second) }()
	// Advance until the grace timer (registered inside DrainWithGrace,
	// concurrently with this loop) has fired and Drain has returned. Each
	// Advance covers the full grace, so exactly one firing is ever needed
	// once the timer exists; the loop only rides out the registration race.
	deadline := time.Now().Add(15 * time.Second)
	for {
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("hard drain returned nil, want context error")
			}
			final := getStatus(t, ts, st.ID)
			if !final.State.Terminal() {
				t.Fatalf("job %s non-terminal after hard drain: %s", st.ID, final.State)
			}
			if final.State != StateCancelled {
				t.Errorf("hard-drained job state = %s, want cancelled", final.State)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("drain did not return after grace expiry")
		}
		fake.Advance(6 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGoldenEquivalence is the cross-layer reproducibility check: the Table
// II slice fetched through the HTTP API must be byte-identical to the
// checked-in golden artifact that the in-process golden tests pin.
func TestGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "golden", "table2_slice.csv"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Workers: 2})
	st, resp := submit(t, ts, Spec{
		Experiment:    "table2",
		Pairs:         []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"},
		InstrsPerProc: 60_000,
		WarmupInstrs:  40_000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	final := waitTerminal(t, ts, st.ID, 2*time.Minute)
	if final.State != StateDone {
		t.Fatalf("golden job %s: %s", final.State, final.Error)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(want, got) {
		t.Errorf("HTTP result diverged from golden artifact\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestConcurrent64 is the capacity requirement: 64 jobs in flight at once,
// all admitted, none dropped, none stuck, every result retrievable.
func TestConcurrent64(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 64
	_, ts := startServer(t, Config{Workers: 8, QueueDepth: n})
	spec := Spec{
		Experiment:    "table2",
		Pairs:         []string{"2Xlbm"},
		InstrsPerProc: 10_000,
		WarmupInstrs:  5_000,
	}
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := submit(t, ts, spec)
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("submit %d: %s", i, resp.Status)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range ids {
		final := waitTerminal(t, ts, id, 2*time.Minute)
		if final.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, final.State, final.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), fmt.Sprintf(`timecache_jobs_finished_total{state="done"} %d`, n)) {
		t.Errorf("metrics missing %d done jobs:\n%s", n, body)
	}
}

// TestMetricsAndHealth smoke-tests the operational endpoints.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/experiments"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %s", path, resp.Status)
		}
		if path == "/metrics" && !strings.Contains(string(body), "timecache_jobs_accepted_total") {
			t.Errorf("metrics output missing counters:\n%s", body)
		}
		if path == "/v1/experiments" && !strings.Contains(string(body), "table2") {
			t.Errorf("experiments output missing table2: %s", body)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: got %s, want 404", resp.Status)
		}
	}
}
