package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"timecache/internal/harness"
	"timecache/internal/resultcache"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
)

// Spec is the wire-format job description accepted by POST /v1/jobs. It
// mirrors the cmd/reproduce and cmd/timecache-sim flag surface: an experiment
// name, the workload selection, and the machine/fidelity overrides. Zero
// values defer to the same defaults the CLIs use.
type Spec struct {
	// Experiment is one of harness.Experiments() ("table2", "parsec",
	// "llc-sweep", "ablation", "bookkeeping", "security", "matrix").
	Experiment string `json:"experiment"`
	// Pairs selects SPEC workload pairs by Table II label ("2Xlbm",
	// "leslie+gobmk") or as "2X<profile>" for any SPEC profile ("2Xzeusmp").
	// Empty runs the experiment's default set.
	Pairs []string `json:"pairs,omitempty"`
	// Workloads selects PARSEC workloads by name. Empty runs all.
	Workloads []string `json:"workloads,omitempty"`
	// LLCSizesKB are llc-sweep points in KB (mirrors -llc on the sweep
	// path). Empty selects the Fig. 10 default ladder.
	LLCSizesKB []int `json:"llc_sizes_kb,omitempty"`
	// SliceLadder are the bookkeeping-scaling slice lengths in cycles.
	SliceLadder []uint64 `json:"slice_ladder,omitempty"`
	// KeyBits and Seed parameterize the security experiment's RSA victim
	// (Seed also seeds the matrix experiment's secrets).
	KeyBits int    `json:"key_bits,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Defenses selects the matrix experiment's rows by registry kind
	// ("none", "timecache", "ftm", "dawg-lite", "flush-on-switch",
	// "clepsydra", "fase"). Empty runs every registered defense.
	Defenses []string `json:"defenses,omitempty"`
	// Attacks selects the matrix experiment's leakage columns. Empty runs
	// the full attack corpus.
	Attacks []string `json:"attacks,omitempty"`
	// AttackBits is the secret length each matrix attack transmits
	// (default 32).
	AttackBits int `json:"attack_bits,omitempty"`

	// InstrsPerProc and WarmupInstrs mirror -instrs/-warmup: the measured
	// and warmup instruction budgets per process.
	InstrsPerProc uint64 `json:"instrs_per_proc,omitempty"`
	WarmupInstrs  uint64 `json:"warmup_instrs,omitempty"`
	// LLCSizeKB overrides the machine's LLC size (mirrors -llc).
	LLCSizeKB int `json:"llc_size_kb,omitempty"`
	// GateLevel routes context-switch comparisons through the gate-level
	// bit-serial model (mirrors -gatelevel).
	GateLevel bool `json:"gate_level,omitempty"`
	// SliceCycles overrides the scheduler time slice (mirrors -slice).
	SliceCycles uint64 `json:"slice_cycles,omitempty"`
	// TimeoutMS bounds the job's run time; the job fails with a deadline
	// error when exceeded. Zero uses the server's default (if any).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this submission: the job always
	// simulates, and its result is not stored. Use it to force a fresh run
	// (e.g. when profiling the simulator itself).
	NoCache bool `json:"no_cache,omitempty"`

	// Tenant names the submitting tenant for per-tenant admission quotas
	// (empty means "default"). Free-form; excluded from the cache key, so
	// tenants share cached results.
	Tenant string `json:"tenant,omitempty"`
	// Priority selects the admission class: "high" jobs are scheduled
	// strictly before "normal" ones (empty means "normal"). Excluded from
	// the cache key.
	Priority string `json:"priority,omitempty"`
}

// priorityClass maps the wire priority to a scheduler queue index.
// validate has already rejected anything else.
func (s Spec) priorityClass() int {
	if s.Priority == "high" {
		return priorityHigh
	}
	return priorityNormal
}

// tenant returns the quota bucket name.
func (s Spec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// harnessJob translates the selection half of the spec.
func (s Spec) harnessJob() harness.Job {
	sizes := make([]int, len(s.LLCSizesKB))
	for i, kb := range s.LLCSizesKB {
		sizes[i] = kb << 10
	}
	return harness.Job{
		Experiment:  s.Experiment,
		Pairs:       s.Pairs,
		Workloads:   s.Workloads,
		LLCSizes:    sizes,
		SliceCycles: s.SliceLadder,
		KeyBits:     s.KeyBits,
		Seed:        s.Seed,
		Defenses:    s.Defenses,
		Attacks:     s.Attacks,
		AttackBits:  s.AttackBits,
	}
}

// cacheKey is the spec's content address in the result cache: a digest over
// the canonical selection fingerprint (harness.Job.Fingerprint) and the
// result-affecting fidelity options (harness.Options.FidelityTag), both with
// defaults resolved — so a spec that spells out a default and one that omits
// it share an entry. Result-invariant fields are deliberately excluded and
// cannot split the key space: TimeoutMS, NoCache itself, Tenant, and
// Priority.
func (s Spec) cacheKey() string {
	h := sha256.New()
	io.WriteString(h, s.harnessJob().Fingerprint())
	io.WriteString(h, "\x00")
	io.WriteString(h, s.options().FidelityTag())
	return hex.EncodeToString(h.Sum(nil))
}

// validate rejects malformed specs before they are queued.
func (s Spec) validate() error {
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", s.TimeoutMS)
	}
	for _, kb := range s.LLCSizesKB {
		if kb <= 0 {
			return fmt.Errorf("llc_sizes_kb entries must be positive, got %d", kb)
		}
	}
	if s.LLCSizeKB < 0 {
		return fmt.Errorf("llc_size_kb must be >= 0, got %d", s.LLCSizeKB)
	}
	if s.AttackBits < 0 {
		return fmt.Errorf("attack_bits must be >= 0, got %d", s.AttackBits)
	}
	switch s.Priority {
	case "", "normal", "high":
	default:
		return fmt.Errorf("priority must be \"normal\" or \"high\", got %q", s.Priority)
	}
	return s.harnessJob().Validate()
}

// options translates the fidelity half of the spec into harness options for
// one leg. The service's parallelism comes from spreading a job's legs over
// its executors; a leg itself always runs sequentially.
func (s Spec) options() harness.Options {
	return harness.Options{
		InstrsPerProc: s.InstrsPerProc,
		WarmupInstrs:  s.WarmupInstrs,
		LLCSize:       s.LLCSizeKB << 10,
		GateLevel:     s.GateLevel,
		SliceCycles:   s.SliceCycles,
	}
}

// State is a job lifecycle state. Transitions are strictly
// queued → running → {done, failed, cancelled}, except that a queued job may
// go directly to cancelled (client DELETE before a worker picks it up).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Cache dispositions, reported in the X-Timecache-Cache response header and
// the Status.Cache field of every submission made while the result cache is
// enabled.
const (
	// cacheHit: the result was served from the cache; no simulation ran.
	cacheHit = "hit"
	// cacheMiss: this submission led a new simulation for its fingerprint.
	cacheMiss = "miss"
	// cacheCoalesced: this submission attached to an identical in-flight
	// simulation and shares its result.
	cacheCoalesced = "coalesced"
	// cacheBypass: the spec set no_cache; the job simulated unconditionally.
	cacheBypass = "bypass"
)

// Status is the wire representation of a job's current state, returned by
// GET /v1/jobs/{id} and embedded in SSE state events.
type Status struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Experiment string `json:"experiment"`
	Error      string `json:"error,omitempty"`
	// Cache is the submission's result-cache disposition ("hit", "miss",
	// "coalesced", "bypass"); empty when the server runs without a cache.
	Cache string `json:"cache,omitempty"`
	// Tenant and Priority echo the spec's admission fields (defaults
	// resolved). Attempt counts leg re-executions after lease expiry or a
	// retryable worker failure — 0 for a job that never lost a leg.
	Tenant   string     `json:"tenant"`
	Priority string     `json:"priority"`
	Attempt  int        `json:"attempt"`
	Done     int        `json:"progress_done"`
	Total    int        `json:"progress_total"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// cachedMeta is the producer metadata stored alongside each cache entry: the
// resource account and progress totals of the run that produced it, replayed
// to every hit and follower so their JSON results match a cold run's.
type cachedMeta struct {
	Resources *JobResources `json:"resources"`
	Done      int           `json:"done"`
	Total     int           `json:"total"`
}

// JobResources is the resource-accounting block of a job's JSON result: the
// harness counters summed over every leg the job dispatched, plus how the
// worker's machine pool served those legs. The harness counters byte-match
// an equivalent in-process run (TestResourceEquivalence pins this); the pool
// delta is service-side only.
type JobResources struct {
	harness.Resources
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	// PoolEvictions counts idle machines the worker pool dropped at its
	// per-config cap while this job ran; SnapshotHits/SnapshotMisses count
	// how the pool's warm-snapshot shelf served the job's legs.
	PoolEvictions  uint64 `json:"pool_evictions"`
	SnapshotHits   uint64 `json:"snapshot_hits"`
	SnapshotMisses uint64 `json:"snapshot_misses"`
}

// add sums two resource accounts field-wise (legs of one job accumulate
// into the job total).
func (r JobResources) add(o JobResources) JobResources {
	r.Resources = r.Resources.Add(o.Resources)
	r.PoolHits += o.PoolHits
	r.PoolMisses += o.PoolMisses
	r.PoolEvictions += o.PoolEvictions
	r.SnapshotHits += o.SnapshotHits
	r.SnapshotMisses += o.SnapshotMisses
	return r
}

// job is the server-side job record. The mutex guards every mutable field;
// done is closed exactly once, when the job reaches a terminal state. Each
// job carries its own span recorder (served raw by /v1/jobs/{id}/trace) and
// a job-scoped structured logger.
type job struct {
	id   string
	spec Spec

	ctx    context.Context
	cancel context.CancelCauseFunc
	trace  *telemetry.SpanRecorder
	log    *slog.Logger

	// flight is the result-cache singleflight this job participates in:
	// as leader (cacheDisp == cacheMiss, this job runs the simulation and
	// publishes the entry) or as follower (cacheDisp == cacheCoalesced,
	// finished by waitCoalesced when the leader's flight resolves). Nil
	// for hits, bypasses, and cache-disabled servers. Written once before
	// any request can reach the job, never mutated after.
	flight *resultcache.Flight
	// cacheDisp is the submission's cache disposition (see the cache*
	// constants); written before any request can reach the job, later
	// only by applyResult.
	cacheDisp string

	// priority is the scheduler queue index (priorityHigh/priorityNormal);
	// written once at creation. inQueue is guarded by the scheduler's mutex
	// (the job is in its priority queue at most once). hasSlot is guarded by
	// the server's mutex: true while the job holds an admission-queue slot
	// (from acceptance until its first leg starts or it dies queued).
	priority int
	inQueue  bool
	hasSlot  bool

	mu        sync.Mutex
	state     State
	errMsg    string
	table     *stats.Table
	done      int
	total     int
	created   time.Time
	enqueued  time.Time
	started   time.Time
	finished  time.Time
	resources *JobResources

	// legs is the job's leg scoreboard (initLegs sizes it from
	// harness.JobLegs before the job is scheduled). legsDone counts legDone
	// entries; attempt counts re-executions (lease expiry, worker retry).
	legs     []legState
	legsDone int
	attempt  int
	// memo lets the job's in-process legs share machine runs (see
	// harness.RunMemo); runMemo creates it on first use and finish drops
	// it, so it lives exactly as long as the job runs.
	memo *harness.RunMemo

	events *eventLog
	doneCh chan struct{}
}

// legStatus is one leg's scheduling state.
type legStatus uint8

const (
	legPending legStatus = iota // wants an executor
	legLeased                   // claimed by an executor, lease live
	legDone                     // completed; table and res recorded
)

// legState is one entry of the job's leg scoreboard, guarded by job.mu.
// epoch fences stale executors: a lease expiry bumps it, and a completion
// or error carrying an older epoch is discarded — the leg has already been
// handed to someone else.
type legState struct {
	status legStatus
	epoch  uint64
	table  *stats.Table
	res    JobResources
}

// initLegs sizes the leg scoreboard for an n-leg job.
func (j *job) initLegs(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.legs = make([]legState, n)
}

// runMemo returns the job's run memo, creating it on first use, or nil once
// the job is terminal: a stale executor still running a leg of a finished
// job simulates alone.
func (j *job) runMemo() *harness.RunMemo {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.memo == nil && !j.state.Terminal() {
		j.memo = &harness.RunMemo{}
	}
	return j.memo
}

// leased reports whether the executor that claimed leg under epoch still
// holds it: the job is live and the leg neither re-issued nor done.
func (j *job) leased(leg int, epoch uint64) bool {
	return !j.state.Terminal() && leg < len(j.legs) &&
		j.legs[leg].status == legLeased && j.legs[leg].epoch == epoch
}

// requeueLeg returns a leased leg to pending under a new epoch, so its
// executor's outcome is stale from now on, and counts the re-execution.
func (j *job) requeueLeg(leg int) {
	j.legs[leg].epoch++
	j.legs[leg].status = legPending
	j.attempt++
}

// claimLeg hands out the first pending leg. more reports whether further
// pending legs remain after this claim (the scheduler keeps the job queued
// if so). Called with the scheduler's mutex held; takes job.mu (lock order:
// sched.mu → job.mu).
func (j *job) claimLeg() (leg int, epoch uint64, more, claimed bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return 0, 0, false, false
	}
	for i := range j.legs {
		if j.legs[i].status != legPending {
			continue
		}
		if !claimed {
			j.legs[i].status = legLeased
			leg, epoch, claimed = i, j.legs[i].epoch, true
		} else {
			more = true
			break
		}
	}
	return leg, epoch, more, claimed
}

func newJob(id string, spec Spec, now time.Time) *job {
	j := &job{id: id, state: StateQueued, events: newEventLog(), doneCh: make(chan struct{})}
	j.applyAccepted(spec, now, "")
	return j
}

// Each apply function installs one journaled record kind on the job: live
// right after the append, in replay record by record. A caller holds j.mu
// or, in replay, owns a job no other goroutine sees yet.

// applyAccepted installs an acceptedRecord: the spec, the creation time and
// the cache disposition.
func (j *job) applyAccepted(spec Spec, created time.Time, cache string) {
	j.spec, j.created, j.cacheDisp = spec, created, cache
	j.priority = spec.priorityClass()
}

// applyLeg installs a legRecord: leg is done with its table and resource
// delta, and progress counts it. The caller has checked that leg is pending.
func (j *job) applyLeg(leg int, tab *stats.Table, res JobResources) {
	l := &j.legs[leg]
	l.status, l.table, l.res = legDone, tab, res
	j.legsDone++
	j.done, j.total = j.legsDone, len(j.legs)
}

// applyResult installs a resultRecord: the job turns terminal. A record
// without a disposition, written before results carried one, keeps the
// accepted record's.
func (j *job) applyResult(r *jobResult) {
	j.state, j.errMsg = r.State, r.Error
	if r.Cache != "" {
		j.cacheDisp = r.Cache
	}
	j.attempt = r.Attempt
	j.done, j.total = r.Done, r.Total
	j.started, j.finished = r.Started, r.Finished
	j.resources = r.res
	if r.State == StateDone {
		j.table = r.table
	}
}

// publishProgress emits a "progress" event: done of total legs.
func (j *job) publishProgress(done, total int) {
	j.events.publish("progress", mustJSON(map[string]int{"done": done, "total": total}))
}

// status snapshots the job for serialization.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		State:      j.state,
		Experiment: j.spec.Experiment,
		Error:      j.errMsg,
		Cache:      j.cacheDisp,
		Tenant:     j.spec.tenant(),
		Priority:   [priorityLevels]string{"high", "normal"}[j.priority],
		Attempt:    j.attempt,
		Done:       j.done,
		Total:      j.total,
		Created:    j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// result returns the finished table and resource account, or an error
// describing why none exists.
func (j *job) result() (*stats.Table, *JobResources, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateDone:
		return j.table, j.resources, nil
	case j.state.Terminal():
		return nil, nil, fmt.Errorf("job %s %s: %s", j.id, j.state, j.errMsg)
	default:
		return nil, nil, fmt.Errorf("job %s is %s; result not ready", j.id, j.state)
	}
}

// event is one SSE frame: a named event with a JSON payload.
type event struct {
	name string
	data []byte
}

// eventLog is a replayable broadcast channel for one job's SSE stream. Every
// published event is appended to history; a subscriber first receives the
// full history, then live events. closed marks end-of-stream (terminal job
// state): subscribers' channels are closed after the history drains.
type eventLog struct {
	mu     sync.Mutex
	hist   []event
	subs   map[chan event]struct{}
	closed bool
	// persist, when set, journals each published event to the durable job
	// store before it is applied (under mu, so the log order and the durable
	// order agree).
	persist func(ev event)
}

func newEventLog() *eventLog {
	return &eventLog{subs: map[chan event]struct{}{}}
}

// publish appends an event and fans it out to live subscribers. Subscriber
// channels are buffered; a subscriber that stopped draining is dropped
// rather than blocking the publisher (it already has the history replayed,
// and SSE clients reconnect).
func (l *eventLog) publish(name string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev := event{name: name, data: data}
	if l.persist != nil {
		l.persist(ev)
	}
	l.apply(ev)
}

// apply appends ev to the history and fans it out to live subscribers.
// Called by publish under l.mu, and by replay, which owns the log, for the
// events it reads back (already durable, so not persisted again).
func (l *eventLog) apply(ev event) {
	l.hist = append(l.hist, ev)
	for ch := range l.subs {
		select {
		case ch <- ev:
		default:
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// stateKey opens a Status's state in its JSON.
var stateKey = []byte(`"state":"`)

// endsWithState reports whether the history ends with a "state" event
// reporting st. A Status names the key "state" once, at its top level, and
// no JSON string holds an unescaped quote, so the first stateKey is that
// key, and the event is read without decoding or allocating.
func (l *eventLog) endsWithState(st State) bool {
	n := len(l.hist)
	if n == 0 || l.hist[n-1].name != "state" {
		return false
	}
	_, v, ok := bytes.Cut(l.hist[n-1].data, stateKey)
	return ok && len(v) > len(st) && string(v[:len(st)]) == string(st) && v[len(st)] == '"'
}

// close ends the stream: no further events are accepted and every
// subscriber's channel is closed once drained.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for ch := range l.subs {
		close(ch)
	}
	l.subs = nil
}

// subscribe returns the event history so far plus a channel of subsequent
// events (nil when the stream already ended) and an unsubscribe function.
func (l *eventLog) subscribe() ([]event, chan event, func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	hist := append([]event(nil), l.hist...)
	if l.closed {
		return hist, nil, func() {}
	}
	ch := make(chan event, 64)
	l.subs[ch] = struct{}{}
	return hist, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
}
