// Package server is the simulation job service: a long-running daemon that
// serves experiment, attack, and sweep jobs over a JSON/HTTP API.
//
// Jobs are submitted to POST /v1/jobs as a Spec (experiment name + workload
// selection + machine overrides, mirroring the CLI flags), checked against a
// content-addressed result cache (internal/resultcache: repeat specs are
// answered without simulating, and concurrent identical specs coalesce onto
// one run — the X-Timecache-Cache header reports each submission's
// disposition), checked against optional per-tenant token quotas, and
// admitted into a bounded two-class priority queue ("high" before
// "normal", FIFO within a class).
//
// Execution is coordinator/worker: the coordinator splits each job into
// its independent sweep legs (harness.JobLegs), leases legs to executors
// with a lease timeout and bounded retries, and reassembles the per-leg
// tables positionally (harness.MergeLegTables) so the merged result is
// byte-identical to a single-process run. Executors are in-process by
// default (-workers goroutines, one machine.Pool each, so hot simulator
// state is reused across legs exactly like the batch sweeps) or remote
// worker daemons (timecache-serve -worker) speaking the /v1/legs
// HTTP/JSON protocol; determinism makes the two interchangeable mid-job.
//
// With a jobstore.Store configured, every admission, state transition,
// SSE event, completed leg, and final result is appended to a
// write-ahead log before the job applies it. On restart the coordinator
// replays the log through the same apply functions: terminal jobs come
// back with their exact result bytes and full event history, interrupted
// jobs resume at their first unfinished leg, and queued jobs re-enter the
// queue — clients polling a job ID across a crash observe the same bytes
// they would have without it. A job's result record is the commit point
// of its terminal transition: a crash before it leaves the job to resume,
// a crash after it leaves the job terminal, its SSE history ending with
// the terminal state event even when the crash took that event. Replay
// appends nothing for a terminal job, so a second restart serves what the
// first served. POST /v1/store/compact rewrites the log, keeping terminal
// jobs' result records and dropping replayed-over intermediate state.
//
// When the queue is full the server answers 429 with Retry-After instead
// of buffering unboundedly; when draining it answers 503. Progress
// streams over SSE from GET /v1/jobs/{id}/events; results are
// retrievable as CSV, markdown, or JSON. DELETE /v1/jobs/{id} cancels a
// job mid-run: the per-job context interrupts the simulated machine
// within a few thousand instructions.
//
// Every job is observable end to end: the server records a wall-clock span
// for each lifecycle stage (validate → enqueue → queue-wait → run → render)
// and the harness records one span per machine run inside the run stage, all
// retrievable as a Chrome trace from GET /v1/jobs/{id}/trace. The JSON
// result carries a resource account (simulated cycles, instructions,
// per-level cache accesses, context switches, s-bit delayed loads, pool
// hits/misses), /metrics aggregates the same counters across jobs, and every
// state transition emits a structured log line through the injected
// slog.Logger. All wall time — timestamps, durations, job deadlines — comes
// from the injected clock.WallClock, so the timeout and drain paths are
// testable on a fake clock.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"timecache/internal/clock"
	"timecache/internal/harness"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
)

// cacheHeader reports the submission's result-cache disposition ("hit",
// "miss", "coalesced", "bypass") on every POST /v1/jobs response while the
// cache is enabled.
const cacheHeader = "X-Timecache-Cache"

// Config sizes the service.
type Config struct {
	// Workers is the number of job executors. Each worker owns one private
	// machine.Pool. Zero starts no workers — jobs queue but never run —
	// which tests use to pin queue behavior deterministically; the
	// timecache-serve CLI defaults this to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue (jobs accepted but not yet
	// running). Zero defaults to 64. A full queue rejects with 429.
	QueueDepth int
	// DefaultTimeout bounds jobs that do not set Spec.TimeoutMS. Zero
	// means unbounded.
	DefaultTimeout time.Duration
	// RetryAfter is the Retry-After hint (seconds) sent with 429 responses.
	// Zero defaults to 1.
	RetryAfter int
	// Clock supplies all wall time: job timestamps, durations, deadline
	// timers, trace span endpoints. Nil defaults to the real clock; tests
	// inject *clock.Fake and step deadlines deterministically.
	Clock clock.WallClock
	// Logger receives the service's structured logs (one line per state
	// transition, admission decision, cancellation, timeout, drain step).
	// Nil discards.
	Logger *slog.Logger
	// Cache, when non-nil, is the content-addressed result cache consulted
	// before admission: a spec whose canonical fingerprint matches a cached
	// entry is answered without simulating, and concurrent submissions of
	// one fingerprint coalesce onto a single in-flight run. Nil disables
	// caching — every job simulates, no cache headers are emitted, and the
	// cache endpoints report disabled. The timecache-serve CLI enables it
	// by default (-cache-entries / -cache-bytes).
	Cache *resultcache.Cache

	// Store, when non-nil, is the durable write-ahead job log. Every
	// acceptance, SSE event, completed leg, and terminal result is journaled
	// to it, and New replays it: finished jobs come back read-only (their
	// results re-seed the cache), interrupted jobs resume at their first
	// unfinished leg. Nil keeps all job state in memory (the pre-store
	// behavior). The timecache-serve CLI wires a disk store via -store-dir.
	Store jobstore.Store
	// StoreRetain bounds how many terminal jobs compaction keeps in the log
	// (and the in-memory job table). Zero retains everything.
	StoreRetain int

	// WorkerAddrs lists remote leg-executor workers (timecache-serve
	// -worker daemons) by base URL. Each address gets one executor loop in
	// addition to the Workers in-process executors; legs are interchangeable
	// between them because rendering is deterministic.
	WorkerAddrs []string
	// LeaseTimeout bounds one leg execution. An executor that has not
	// completed its leg within the lease loses it: the leg is re-queued for
	// another executor and the stale run's eventual outcome is discarded.
	// Zero disables leases (a leg runs as long as the job's deadline
	// allows).
	LeaseTimeout time.Duration
	// MaxLegAttempts bounds how many times one leg may be dispatched when
	// executors fail retryably (worker unreachable, 5xx). Zero defaults
	// to 3. Deterministic simulation errors are never retried.
	MaxLegAttempts int
	// RetryBackoff is the delay before a retryable leg failure re-queues
	// (on the injected clock). Zero defaults to 250ms.
	RetryBackoff time.Duration

	// QuotaBurst enables per-tenant admission quotas when positive: each
	// tenant holds a token bucket of this capacity, refilled at QuotaRate
	// tokens/second, and a submission with no token is rejected 429.
	QuotaBurst float64
	// QuotaRate is the per-tenant bucket refill rate in tokens/second.
	QuotaRate float64
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) retryAfter() int {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return 1
}

func (c Config) maxLegAttempts() int {
	if c.MaxLegAttempts > 0 {
		return c.MaxLegAttempts
	}
	return 3
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 250 * time.Millisecond
}

// Cancellation causes, distinguished from deadline expiry via
// context.Cause: a client cancel or a drain hard-stop lands the job in
// StateCancelled; a deadline (and any run error) is StateFailed.
var (
	errClientCancel = errors.New("cancelled by client")
	errDrainStop    = errors.New("cancelled by server drain")
	// errLeaseExpired interrupts a leg run whose lease the coordinator
	// revoked; the job itself continues on another executor.
	errLeaseExpired = errors.New("leg lease expired")
)

// Server is the coordinator of the job service: it owns admission (quota,
// priority, backpressure), the durable log, lease-based leg scheduling, and
// positional result merging. Leg execution is delegated to executors —
// in-process goroutines and/or remote worker daemons. Create with New,
// mount via Handler, stop with Drain. The zero value is not usable.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	sched  *sched
	quotas *quotas // nil when per-tenant quotas are disabled

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job IDs in submission order, for GET /v1/jobs
	queued int      // jobs holding admission-queue slots (accepted, not yet running)

	nextID    atomic.Uint64
	running   atomic.Int64
	draining  atomic.Bool
	closeOnce sync.Once
	workers   sync.WaitGroup
	// followers tracks waitCoalesced goroutines; Drain waits for them after
	// the workers, so every coalesced job reaches a terminal state before
	// Drain returns (leaders resolve their flights as the workers unwind).
	followers sync.WaitGroup

	metrics *metrics
	clk     clock.WallClock
	log     *slog.Logger
}

// New builds a server and starts its workers.
func New(cfg Config) *Server {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		sched:   newSched(),
		jobs:    map[string]*job{},
		metrics: newMetrics(),
		clk:     clk,
		log:     logger,
	}
	if cfg.QuotaBurst > 0 {
		s.quotas = newQuotas(cfg.QuotaRate, cfg.QuotaBurst, clk)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	s.mux.HandleFunc("DELETE /v1/cache", s.handleCachePurge)
	s.mux.HandleFunc("POST /v1/store/compact", s.handleStoreCompact)

	// Replay the durable log before any executor starts: reconstruction is
	// single-threaded, and resumed jobs are already queued when the first
	// executor wakes. Startup compaction then drops the dead weight the
	// previous process accumulated.
	if cfg.Store != nil {
		t0 := s.now()
		s.replay()
		if _, err := s.compactStore(); err != nil {
			s.log.Warn("startup compaction failed", "error", err)
		}
		s.metrics.replayTime = s.now().Sub(t0)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.executorLoop(newInProcExecutor(s))
	}
	for _, addr := range cfg.WorkerAddrs {
		s.workers.Add(1)
		go s.executorLoop(newRemoteExecutor(addr))
	}
	s.log.Info("server started", "workers", cfg.Workers, "remote_workers", len(cfg.WorkerAddrs),
		"queue_depth", cfg.queueDepth(), "store", cfg.Store != nil)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// now reads the injected wall clock.
func (s *Server) now() time.Time { return s.clk.Now() }

// Drain gracefully stops the server: new submissions are rejected with 503,
// queued and running jobs are allowed to finish, and Drain returns when the
// workers exit. If ctx expires first, every unfinished job is hard-cancelled
// (reaching StateCancelled — never silently dropped) and Drain returns
// ctx.Err() after the workers unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("drain started", "queued", s.queuedCount(), "running", s.running.Load())
	s.closeOnce.Do(func() { s.sched.close() })
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.followers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete", "forced", false)
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		jobs := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		s.log.Warn("drain grace expired; hard-cancelling unfinished jobs", "jobs", len(jobs))
		for _, j := range jobs {
			if j.cancel != nil {
				j.cancel(errDrainStop)
			}
		}
		<-done
		s.log.Info("drain complete", "forced", true)
		return ctx.Err()
	}
}

// DrainWithGrace drains with a hard-stop deadline of grace from now,
// measured on the server's injected clock (so tests can expire the grace
// with a fake-clock Advance). A non-positive grace waits forever.
func (s *Server) DrainWithGrace(grace time.Duration) error {
	if grace <= 0 {
		return s.Drain(context.Background())
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	timer := s.clk.AfterFunc(grace, func() { cancel(context.DeadlineExceeded) })
	defer timer.Stop()
	defer cancel(nil)
	return s.Drain(ctx)
}

// executorLoop pulls claimed legs from the scheduler until it closes and the
// backlog drains. Every executor — in-process or remote — runs this same
// loop; the scheduler hands the legs of one job to as many idle executors as
// exist, in leg order.
func (s *Server) executorLoop(ex legExecutor) {
	defer s.workers.Done()
	for {
		j, leg, epoch, ok := s.sched.next()
		if !ok {
			return
		}
		s.runLeg(j, leg, epoch, ex)
	}
}

// queuedCount reports how many jobs hold admission-queue slots.
func (s *Server) queuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// releaseQueueSlot frees the job's admission slot exactly once (first leg
// start, or death while queued). Must not be called holding j.mu.
func (s *Server) releaseQueueSlot(j *job) {
	s.mu.Lock()
	if j.hasSlot {
		j.hasSlot = false
		s.queued--
	}
	s.mu.Unlock()
}

// markRunning performs the queued→running transition the first time any leg
// of the job starts; later legs find the job already running and no-op.
func (s *Server) markRunning(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = s.now()
	started, enqueued := j.started, j.enqueued
	j.mu.Unlock()
	s.releaseQueueSlot(j)
	s.running.Add(1)
	s.metrics.jobsRunning.Store(s.running.Load())
	j.trace.Lifecycle("queue-wait", enqueued, started, nil)
	j.log.Info("job running", "queue_wait", started.Sub(enqueued))
	s.appendRecord(jobstore.KindState, j.id, stateRecord{State: StateRunning, At: started})
	s.publishState(j)
}

// runLeg drives one claimed leg: lease timer, execution, then completion or
// the error path. The per-leg context lets a lease expiry interrupt the
// stale run without touching the job's own context.
func (s *Server) runLeg(j *job, leg int, epoch uint64, ex legExecutor) {
	s.markRunning(j)
	if j.ctx.Err() != nil {
		// Cancelled or timed out while queued: nothing to execute.
		s.finalize(j, context.Cause(j.ctx))
		return
	}
	legCtx, cancelRun := context.WithCancelCause(j.ctx)
	defer cancelRun(nil)
	var lease clock.WallTimer
	if s.cfg.LeaseTimeout > 0 {
		lease = s.clk.AfterFunc(s.cfg.LeaseTimeout, func() {
			s.expireLease(j, leg, epoch, cancelRun)
		})
	}
	tab, res, err := ex.runLeg(legCtx, j, leg)
	if lease != nil {
		lease.Stop()
	}
	if err != nil {
		s.legError(j, leg, epoch, err)
		return
	}
	s.completeLeg(j, leg, epoch, tab, res)
}

// expireLease revokes leg's lease if the same epoch still holds it: the leg
// returns to pending under a new epoch (so the overrun executor's eventual
// outcome is discarded as stale), the running executor is interrupted, and
// the job re-enters the scheduler.
func (s *Server) expireLease(j *job, leg int, epoch uint64, cancelRun context.CancelCauseFunc) {
	j.mu.Lock()
	if !j.leased(leg, epoch) {
		j.mu.Unlock()
		return
	}
	j.requeueLeg(leg)
	j.mu.Unlock()
	s.metrics.leasesExpired.Add(1)
	j.log.Warn("leg lease expired; re-queueing", "leg", leg, "lease", s.cfg.LeaseTimeout)
	cancelRun(errLeaseExpired)
	s.sched.enqueue(j)
}

// completeLeg records one leg's result. Stale completions (the lease was
// revoked and the leg re-issued under a newer epoch) are discarded — the
// replacement run's result stands, and determinism guarantees the bytes
// would have been identical anyway. The last leg in triggers finalize.
func (s *Server) completeLeg(j *job, leg int, epoch uint64, tab *stats.Table, res JobResources) {
	j.mu.Lock()
	if !j.leased(leg, epoch) {
		j.mu.Unlock()
		return
	}
	s.appendRecord(jobstore.KindLeg, j.id, legRecord{Leg: leg, Header: tab.Header, Rows: tab.Rows, Resources: res})
	j.applyLeg(leg, tab, res)
	done, total := j.done, j.total
	j.mu.Unlock()
	s.metrics.legsCompleted.Add(1)
	// Progress is reported at leg granularity.
	j.publishProgress(done, total)
	if j.flight != nil {
		j.flight.Progress(done, total)
	}
	if done == total {
		s.finalize(j, nil)
	}
}

// legError handles a failed leg execution. Retryable failures (the execution
// channel broke — worker unreachable, 5xx) re-queue the leg after a backoff,
// up to MaxLegAttempts; anything else — including the job's own context
// ending — finalizes the job.
func (s *Server) legError(j *job, leg int, epoch uint64, err error) {
	j.mu.Lock()
	if !j.leased(leg, epoch) {
		// The job ended, or the lease expired and the leg was re-issued;
		// this executor's failure is stale news.
		j.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		j.mu.Unlock()
		s.finalize(j, context.Cause(j.ctx))
		return
	}
	if isRetryable(err) && !s.draining.Load() && int(epoch)+1 < s.cfg.maxLegAttempts() {
		j.requeueLeg(leg)
		attempt := j.attempt
		j.mu.Unlock()
		s.metrics.legRetries.Add(1)
		backoff := s.cfg.retryBackoff()
		j.log.Warn("leg failed on retryable error; backing off",
			"leg", leg, "attempt", attempt, "backoff", backoff, "error", err)
		s.clk.AfterFunc(backoff, func() {
			if s.draining.Load() {
				// Executors may already be unwinding; a re-queued leg could
				// strand the job non-terminal. Fail it explicitly instead.
				s.finalize(j, fmt.Errorf("leg %d retry abandoned: server draining: %w", leg, err))
				return
			}
			s.sched.enqueue(j)
		})
		return
	}
	j.mu.Unlock()
	s.finalize(j, err)
}

// finalize ends a job that ran (or was to run) its legs: merge the leg
// tables positionally, sum the per-leg resource accounts, resolve the
// result-cache flight the job leads, and finish it. Safe to call from
// racing paths (last leg, cancel, deadline, drain) — the first caller wins.
func (s *Server) finalize(j *job, runErr error) {
	runEnd := s.now()
	started := runEnd
	r, ok := s.finish(j, func(r *jobResult) {
		res := JobResources{}
		parts := make([]*stats.Table, len(j.legs))
		for i := range j.legs {
			parts[i] = j.legs[i].table
			res = res.add(j.legs[i].res)
		}
		err := runErr
		if err == nil {
			r.table, err = harness.MergeLegTables(j.spec.harnessJob(), parts)
		}
		r.State, r.Error = terminalState(j.ctx, err)
		r.res = &res
		r.Finished = s.now()
		if !r.Started.IsZero() {
			started = r.Started
		}
		// The run span covers every leg execution; the render stage merges
		// the slices. The five lifecycle stages tile the job's wall time.
		j.trace.Lifecycle("run", started, runEnd, map[string]any{
			"legs": res.Legs, "sim_cycles": res.SimCycles, "instructions": res.Instructions,
		})
		j.trace.Lifecycle("render", runEnd, r.Finished, nil)
		if j.flight == nil {
			return
		}
		// Resolve the flight before the job turns terminal, so a
		// resubmission that sees this job done hits the cache: publish the
		// fully rendered result for future hits and current followers, or
		// fail the followers with an error naming this job.
		if r.State == StateDone {
			s.cfg.Cache.Complete(j.flight, &resultcache.Entry{
				Key:      j.flight.Key(),
				CSV:      []byte(r.table.CSV()),
				Markdown: []byte(r.table.Markdown()),
				Table:    r.table,
				Meta:     mustJSON(cachedMeta{Resources: &res, Done: r.Done, Total: r.Total}),
			}, nil)
		} else {
			s.cfg.Cache.Complete(j.flight, nil,
				fmt.Errorf("leader job %s %s: %s", j.id, r.State, r.Error))
		}
	}, func(r *jobResult) {
		if !r.Started.IsZero() { // markRunning counted the job as running
			s.running.Add(-1)
			s.metrics.jobsRunning.Store(s.running.Load())
		}
		s.metrics.finish(r.State, j.spec.Experiment, r.Finished.Sub(started))
		s.metrics.addJob(*r.res)
	})
	if !ok {
		return
	}
	s.releaseQueueSlot(j)
	res := *r.res
	log := j.log.With("state", r.State, "duration", r.Finished.Sub(started),
		"legs", res.Legs, "sim_cycles", res.SimCycles,
		"pool_hits", res.PoolHits, "pool_misses", res.PoolMisses)
	switch r.State {
	case StateDone:
		log.Info("job finished")
	default:
		log.Warn("job finished", "error", r.Error)
	}
}

// terminalState maps how a job ended to its terminal state and error: no
// error is done; a client cancel or a drain hard-stop (the context's cause)
// is cancelled; a deadline or any other error is failed.
func terminalState(ctx context.Context, err error) (State, string) {
	switch cause := context.Cause(ctx); {
	case err == nil:
		return StateDone, ""
	case errors.Is(cause, errClientCancel) || errors.Is(cause, errDrainStop):
		return StateCancelled, cause.Error()
	case errors.Is(cause, context.DeadlineExceeded):
		return StateFailed, cause.Error()
	default:
		return StateFailed, err.Error()
	}
}

// finish is the one terminal transition: every path that ends a job goes
// through it, and the first caller wins. Under j.mu it builds the result
// from the job as it stands, finished now, and lets outcome set the state
// and whatever else ended the job, and drops the job's run memo. It
// appends the result record, the commit point a restart replays, and
// applies it. fold, when non-nil, then folds the job into the server's
// metrics, still under j.mu: a client that sees the job terminal, by
// polling its status or on doneCh, finds it counted in /metrics. Only then
// does finish publish the terminal state event, end the SSE stream and
// close doneCh.
func (s *Server) finish(j *job, outcome, fold func(r *jobResult)) (jobResult, bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return jobResult{}, false
	}
	r := jobResult{resultHead: resultHead{
		Cache: j.cacheDisp, Attempt: j.attempt, Done: j.done, Total: j.total,
		Started: j.started, Finished: s.now(),
	}}
	outcome(&r)
	if j.memo != nil {
		s.metrics.memoHits.Add(j.memo.Hits())
		j.memo = nil
	}
	if s.cfg.Store != nil {
		rec := resultRecord{resultHead: r.resultHead, Res: r.res}
		if r.State == StateDone && r.table != nil {
			rec.Header, rec.Rows = r.table.Header, r.table.Rows
		}
		s.appendRecord(jobstore.KindResult, j.id, rec)
	}
	j.applyResult(&r)
	if fold != nil {
		fold(&r)
	}
	j.mu.Unlock()
	s.publishState(j)
	j.events.close()
	close(j.doneCh)
	return r, true
}

// finishFromEntry finishes a job with a cached result: it publishes the
// entry's progress, then turns the job done with the entry's table,
// resources and progress — byte-identical to a cold run by the simulator's
// determinism. fold is finish's.
func (s *Server) finishFromEntry(j *job, e *resultcache.Entry, fold func(r *jobResult)) (jobResult, bool) {
	var meta cachedMeta
	if err := json.Unmarshal(e.Meta, &meta); err != nil {
		j.log.Warn("cache entry metadata unreadable; serving result without resources", "error", err)
	}
	j.publishProgress(meta.Done, meta.Total)
	return s.finish(j, func(r *jobResult) {
		r.State, r.table, r.res = StateDone, e.Table, meta.Resources
		r.Done, r.Total = meta.Done, meta.Total
	}, fold)
}

// register makes the job visible: found by id, listed in submission order.
// Caller holds s.mu.
func (s *Server) register(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// admit runs the job's result-cache admission and returns the cached entry
// on a hit; otherwise the job leads a new flight for its key (miss) or
// joins the one in progress (coalesced). resolve is the cache's Begin for a
// new submission and Readmit for a replayed one, so only a submission moves
// the admission counters. The key is j.key.
func (s *Server) admit(j *job,
	resolve func(*resultcache.Cache, string) (*resultcache.Entry, *resultcache.Flight, bool)) *resultcache.Entry {
	switch {
	case s.cfg.Cache == nil:
		return nil
	case j.spec.NoCache:
		j.cacheDisp = cacheBypass
		return nil
	}
	entry, flight, leader := resolve(s.cfg.Cache, j.key)
	switch {
	case entry != nil:
		j.cacheDisp = cacheHit
	case leader:
		flight.SetLeaderTag(j.id)
		j.flight, j.cacheDisp = flight, cacheMiss
	default:
		j.flight, j.cacheDisp = flight, cacheCoalesced
	}
	return entry
}

// follow attaches a coalesced job to its leader's flight: no queue slot and
// no worker — the leader's flight resolves it. It still has its own
// deadline timer and context, and mirrors the leader's progress onto its
// own SSE stream. waitCoalesced is its sole finisher.
func (s *Server) follow(j *job) {
	j.flight.OnProgress(func(done, total int) {
		j.mu.Lock()
		if j.state.Terminal() {
			j.mu.Unlock()
			return
		}
		j.done, j.total = done, total
		j.mu.Unlock()
		j.publishProgress(done, total)
	})
	s.followers.Add(1)
	go s.waitCoalesced(j)
}

// publishState emits the job's current Status as an SSE "state" event.
func (s *Server) publishState(j *job) {
	j.events.publish("state", mustJSON(j.status()))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: marshal %T: %v", v, err))
	}
	return b
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.queueDepth.Store(int64(s.queuedCount()))
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		s.metrics.storeRecords.Store(int64(st.Records))
		s.metrics.storeBytes.Store(int64(st.Bytes))
		s.metrics.storeSegments.Store(int64(st.Segments))
		s.metrics.storeCompactions.Store(st.Compactions)
		s.metrics.storeAppendErrors.Store(st.AppendErrors)
	}
	var cs resultcache.Stats
	if s.cfg.Cache != nil {
		cs = s.cfg.Cache.Stats()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.metrics.render(cs)))
}

// handleStoreCompact rewrites the write-ahead log in place, dropping
// replayed-over intermediate records (and, with StoreRetain set, the oldest
// terminal jobs beyond the retention bound). 404 when no store is
// configured.
func (s *Server) handleStoreCompact(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, errors.New("no job store configured"))
		return
	}
	st, err := s.compactStore()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("compact job store: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"records":     st.Records,
		"bytes":       st.Bytes,
		"segments":    st.Segments,
		"compactions": st.Compactions,
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": harness.Experiments()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqStart := s.now()
	if s.draining.Load() {
		s.log.Info("submit rejected: draining")
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.log.Info("submit rejected: bad spec", "error", err)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
		return
	}
	if err := spec.validate(); err != nil {
		s.log.Info("submit rejected: invalid spec", "experiment", spec.Experiment, "error", err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Per-tenant quota, checked after validation (malformed requests spend
	// no tokens) and before cache admission (a tenant over quota does not
	// get to lead or join flights).
	if s.quotas != nil {
		if ok, retry := s.quotas.admit(spec.tenant()); !ok {
			s.metrics.quotaRejected.Add(1)
			s.log.Info("submit rejected: tenant over quota", "tenant", spec.tenant())
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("tenant %q over admission quota; retry later", spec.tenant()))
			return
		}
	}
	legs, err := harness.JobLegs(spec.harnessJob())
	if err != nil { // unreachable after validate; defensive
		writeError(w, http.StatusBadRequest, err)
		return
	}

	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	j := newJob(id, spec, reqStart)
	j.key = spec.cacheKey()
	j.trace = telemetry.NewSpanRecorder(s.clk.Now)
	j.log = s.log.With("job", id, "experiment", spec.Experiment)
	j.trace.Lifecycle("validate", reqStart, s.now(), map[string]any{"experiment": spec.Experiment})

	// Result-cache admission. A hit finishes the job immediately — the job
	// still gets its own id, status, SSE history, and result endpoints, but
	// no queue slot, worker, deadline timer or simulation metric. A miss
	// makes this job the leader of a singleflight; concurrent identical
	// submissions become followers finished from the leader's flight.
	entry := s.admit(j, (*resultcache.Cache).Begin)
	disp := j.cacheDisp
	switch {
	case entry != nil:
		s.attachPersistence(j)
		r, _ := s.finishFromEntry(j, entry, func(r *jobResult) {
			s.metrics.finish(StateDone, spec.Experiment, r.Finished.Sub(reqStart))
		})
		s.mu.Lock()
		s.register(j)
		s.mu.Unlock()
		j.trace.Lifecycle("cache-hit", reqStart, r.Finished, map[string]any{"key": entry.Key})
		j.log.Info("job served from result cache", "key", entry.Key)
	case disp == cacheCoalesced:
		s.armJob(j)
		s.mu.Lock()
		s.register(j)
		s.mu.Unlock()
		s.attachPersistence(j)
		s.follow(j)
		j.log.Info("job coalesced onto in-flight simulation", "leader", j.flight.LeaderTag())
		s.publishState(j)
	default:
		if disp == cacheBypass {
			s.metrics.cacheBypass.Add(1)
		}
		timeout := s.armJob(j)
		validated := s.now()
		// Admission-queue backpressure. The depth check and the
		// registration are one critical section, so no rollback (and no
		// rollback race with a concurrent submit) is possible: either the
		// job is registered holding a slot, or it was never visible at all.
		s.mu.Lock()
		if s.queued >= s.cfg.queueDepth() {
			depth := s.cfg.queueDepth()
			s.mu.Unlock()
			// Releases the deadline goroutine too: it selects on ctx.Done.
			j.cancel(errors.New("rejected: queue full"))
			if j.flight != nil {
				// The leader of a flight never ran; fail its followers now
				// rather than leaving them waiting on a simulation that will
				// never start.
				s.cfg.Cache.Complete(j.flight, nil,
					fmt.Errorf("leader job %s rejected: queue full", id))
			}
			s.metrics.jobsRejected.Add(1)
			j.log.Warn("job rejected: queue full", "queue_depth", depth, "retry_after_s", s.cfg.retryAfter())
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.retryAfter()))
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("admission queue full (%d queued); retry later", depth))
			return
		}
		s.queued++
		j.hasSlot = true
		s.register(j)
		queueLen := s.queued
		s.mu.Unlock()

		j.initLegs(legs)
		s.attachPersistence(j)
		enqueued := s.now()
		j.mu.Lock()
		j.enqueued = enqueued
		j.mu.Unlock()
		j.trace.Lifecycle("enqueue", validated, enqueued, nil)
		j.log.Info("job accepted", "queue_len", queueLen, "timeout", timeout, "legs", legs, "priority", j.priority)
		s.publishState(j)
		s.sched.enqueue(j)
	}
	s.metrics.jobsAccepted.Add(1)
	if disp != "" {
		w.Header().Set(cacheHeader, disp)
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// armJob creates the job's cancellable context and, when the job has a
// timeout (its spec's, else the server's default), its deadline, and
// returns the timeout. The deadline is a clock timer, not
// context.WithDeadline, so a fake clock can expire it deterministically;
// context.Cause still reads DeadlineExceeded. The timer is released when
// the job finishes — or, for a job rejected at admission (whose doneCh
// never closes), when the rejection path cancels the context.
func (s *Server) armJob(j *job) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.ctx, j.cancel = ctx, cancel
	if timeout > 0 {
		timer := s.clk.AfterFunc(timeout, func() {
			cancel(context.DeadlineExceeded)
			j.trace.Instant("deadline", s.now(), map[string]any{"timeout_ms": timeout.Milliseconds()})
			j.log.Warn("job deadline expired", "timeout", timeout)
		})
		go func() {
			select {
			case <-j.doneCh:
			case <-ctx.Done():
			}
			timer.Stop()
		}()
	}
	return timeout
}

// waitCoalesced finishes a follower job when its leader's flight resolves
// or its own context ends (deadline, client cancel, drain hard-stop),
// whichever comes first. It is the follower's sole finisher — the cancel
// handler only cancels the context and lets this goroutine observe it — so
// the terminal transition happens exactly once.
func (s *Server) waitCoalesced(j *job) {
	defer s.followers.Done()
	waitStart := s.now()
	var entry *resultcache.Entry
	var flightErr error
	select {
	case <-j.flight.Done():
		entry, flightErr = j.flight.Result()
	case <-j.ctx.Done():
		flightErr = context.Cause(j.ctx)
	}

	// No addJob: this job consumed no simulation resources of its own.
	fold := func(r *jobResult) { s.metrics.finish(r.State, j.spec.Experiment, r.Finished.Sub(waitStart)) }
	var r jobResult
	var ok bool
	if entry != nil && flightErr == nil {
		r, ok = s.finishFromEntry(j, entry, fold)
	} else {
		err := fmt.Errorf("coalesced onto job %s, which did not complete: %v", j.flight.LeaderTag(), flightErr)
		r, ok = s.finish(j, func(r *jobResult) { r.State, r.Error = terminalState(j.ctx, err) }, fold)
	}
	if !ok {
		return
	}
	j.trace.Lifecycle("coalesced-wait", waitStart, r.Finished,
		map[string]any{"leader": j.flight.LeaderTag(), "key": j.flight.Key()})
	log := j.log.With("state", r.State, "leader", j.flight.LeaderTag(), "wait", r.Finished.Sub(waitStart))
	switch r.State {
	case StateDone:
		log.Info("coalesced job finished")
	default:
		log.Warn("coalesced job finished", "error", r.Error)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// s.order is already submission-ordered; sorting the id strings would
	// diverge from submission order once the %06d width overflows.
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid limit %q: want a positive integer", raw))
			return
		}
		limit = n
	}
	after := q.Get("after")

	s.mu.Lock()
	start := 0
	if after != "" {
		found := false
		for i, id := range s.order {
			if id == after {
				start, found = i+1, true
				break
			}
		}
		if !found {
			s.mu.Unlock()
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown cursor %q", after))
			return
		}
	}
	end := len(s.order)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	out := make([]Status, 0, end-start)
	for _, id := range s.order[start:end] {
		out = append(out, s.jobs[id].status())
	}
	truncated := end < len(s.order)
	s.mu.Unlock()

	resp := map[string]any{"jobs": out}
	if truncated && len(out) > 0 {
		// Resume with ?after=<next>: the cursor is the last id returned, so
		// pagination is stable as new jobs append to the tail.
		resp["next"] = out[len(out)-1].ID
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookup resolves {id}, writing 404 on miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	st := j.status()
	if st.State.Terminal() {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	j.cancel(errClientCancel)
	j.trace.Instant("cancel", s.now(), map[string]any{"while": st.State})
	j.log.Info("job cancel requested", "state", st.State)
	// A running job's worker, and a coalesced follower's waitCoalesced,
	// observe the cancelled context and finish the job. A job still waiting
	// for the scheduler is finished here, and the scheduler skips it.
	if st.State == StateQueued && st.Cache != cacheCoalesced {
		s.finalize(j, errClientCancel)
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	s.metrics.sseSubscribers.Add(1)
	defer s.metrics.sseSubscribers.Add(-1)
	hist, live, unsub := j.events.subscribe()
	defer unsub()
	writeSSE := func(ev event) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
	}
	for _, ev := range hist {
		writeSSE(ev)
	}
	fl.Flush()
	if live == nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			writeSSE(ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	tab, res, err := j.result()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Write([]byte(tab.CSV()))
	case "md", "markdown":
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		w.Write([]byte(tab.Markdown()))
	case "json":
		writeJSON(w, http.StatusOK, map[string]any{
			"id":        j.id,
			"header":    tab.Header,
			"rows":      tab.Rows,
			"resources": res,
		})
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want csv, md, or json)", format))
	}
}

// handleTrace serves the job's span recorder as a Chrome trace-event JSON
// document (load it in Perfetto or chrome://tracing). Available at any point
// in the job's life; spans recorded so far are returned.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	b, err := j.trace.JSON(map[string]any{"job": j.id, "experiment": j.spec.Experiment})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(b)
}

// handleCacheStats serves the result cache's accounting snapshot. With the
// cache disabled only {"enabled": false} is returned.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	type response struct {
		Enabled bool `json:"enabled"`
		resultcache.Stats
	}
	if s.cfg.Cache == nil {
		writeJSON(w, http.StatusOK, response{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, response{Enabled: true, Stats: s.cfg.Cache.Stats()})
}

// handleCachePurge drops every cached result (in-flight simulations are not
// interrupted; they re-publish on completion). The operator's recourse after
// a result-affecting deploy that forgot to bump FingerprintSchemaVersion.
func (s *Server) handleCachePurge(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		writeError(w, http.StatusNotFound, errors.New("result cache disabled"))
		return
	}
	n := s.cfg.Cache.Purge()
	s.log.Info("result cache purged", "entries", n)
	writeJSON(w, http.StatusOK, map[string]any{"purged": n})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}
