package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/resultcache"
	"timecache/internal/telemetry"
)

// metrics is the /metrics endpoint's state, rendered in the Prometheus text
// exposition format. Job durations reuse telemetry.Histogram — the same
// log2-bucketed histogram the simulator uses for access latencies — so the
// service layer and the simulator report through one mechanism. Beyond the
// queue/job counters it aggregates every finished job's resource account
// (simulated cycles, instructions, per-level cache accesses, context
// switches, s-bit delayed loads) and the machine-pool hit/miss totals, so an
// operator can see where simulated work went without fetching any result.
type metrics struct {
	jobsAccepted   atomic.Int64
	jobsRejected   atomic.Int64
	jobsRunning    atomic.Int64
	queueDepth     atomic.Int64
	sseSubscribers atomic.Int64

	poolHits       atomic.Uint64
	poolMisses     atomic.Uint64
	poolEvictions  atomic.Uint64
	snapshotHits   atomic.Uint64
	snapshotMisses atomic.Uint64
	// memoHits counts machine runs a job's legs took from the job's run
	// memo instead of simulating, folded in when the job finishes.
	memoHits atomic.Uint64

	// cacheBypass counts no_cache submissions. The hit/miss/coalesced/
	// eviction counters live in the resultcache itself and are folded into
	// render's snapshot argument; bypasses never reach the cache, so the
	// server counts them here.
	cacheBypass atomic.Uint64

	// Coordinator counters: per-tenant quota rejections and the leg
	// scheduling machinery (completions, channel-failure retries, lease
	// expiries).
	quotaRejected atomic.Uint64
	legsCompleted atomic.Uint64
	legRetries    atomic.Uint64
	leasesExpired atomic.Uint64

	// Job-store state. The gauges mirror Store.Stats at scrape time (set by
	// handleMetrics); replayedJobs counts jobs reconstructed from the log at
	// startup.
	replayedJobs      atomic.Uint64
	storeRecords      atomic.Int64
	storeBytes        atomic.Int64
	storeSegments     atomic.Int64
	storeCompactions  atomic.Uint64
	storeAppendErrors atomic.Uint64
	// replayTime is how long startup replay and compaction took on the
	// server's clock. New sets it before any request can read it.
	replayTime time.Duration

	mu           sync.Mutex
	finished     map[State]int64
	duration     telemetry.Histogram // job wall time, milliseconds, all jobs
	byExperiment map[string]*telemetry.Histogram
	resources    harness.Resources
}

func newMetrics() *metrics {
	return &metrics{
		finished:     map[State]int64{},
		byExperiment: map[string]*telemetry.Histogram{},
	}
}

// finish records one terminal job and its duration, overall and per
// experiment type.
func (m *metrics) finish(state State, experiment string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished[state]++
	ms := uint64(d.Milliseconds())
	m.duration.Observe(ms)
	h := m.byExperiment[experiment]
	if h == nil {
		h = &telemetry.Histogram{}
		m.byExperiment[experiment] = h
	}
	h.Observe(ms)
}

// addJob folds one finished job's resource account and pool delta into the
// totals.
func (m *metrics) addJob(res JobResources) {
	m.poolHits.Add(res.PoolHits)
	m.poolMisses.Add(res.PoolMisses)
	m.poolEvictions.Add(res.PoolEvictions)
	m.snapshotHits.Add(res.SnapshotHits)
	m.snapshotMisses.Add(res.SnapshotMisses)
	m.mu.Lock()
	m.resources = m.resources.Add(res.Resources)
	m.mu.Unlock()
}

// render produces the Prometheus text format. All mu-guarded state is copied
// in one lock acquisition up front; quantiles and the rest of the rendering
// work off that snapshot so a slow scrape never holds the lock that the job
// finish path takes. cs is the result cache's accounting snapshot (the zero
// value when the server runs without a cache — the families still render, at
// zero, so dashboards need not special-case disabled caches).
func (m *metrics) render(cs resultcache.Stats) string {
	m.mu.Lock()
	finished := make(map[State]int64, len(m.finished))
	for st, n := range m.finished {
		finished[st] = n
	}
	duration := m.duration // value copy: the bucket array copies with it
	byExp := make(map[string]telemetry.Histogram, len(m.byExperiment))
	for name, h := range m.byExperiment {
		byExp[name] = *h
	}
	res := m.resources
	m.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("timecache_jobs_accepted_total", "Jobs admitted to the queue.", uint64(m.jobsAccepted.Load()))
	counter("timecache_jobs_rejected_total", "Jobs rejected with 429 (queue full).", uint64(m.jobsRejected.Load()))
	gauge("timecache_jobs_running", "Jobs currently executing.", m.jobsRunning.Load())
	gauge("timecache_queue_depth", "Jobs accepted but not yet running.", m.queueDepth.Load())
	gauge("timecache_sse_subscribers", "Open SSE event-stream connections.", m.sseSubscribers.Load())
	counter("timecache_pool_hits_total", "Machine-pool gets served by a pooled (Reset) machine.", m.poolHits.Load())
	counter("timecache_pool_misses_total", "Machine-pool gets that assembled a fresh machine.", m.poolMisses.Load())
	counter("timecache_pool_evictions_total", "Idle machines dropped because a config's shelf was at its cap.", m.poolEvictions.Load())
	gauge("timecache_pool_idle_cap", "Per-config bound on each worker pool's idle machine list.", int64(machine.DefaultIdleCap))
	counter("timecache_snapshot_hits_total", "Experiment legs forked from a shelved warm snapshot.", m.snapshotHits.Load())
	counter("timecache_snapshot_misses_total", "Snapshot-shelf lookups that found no matching warm state.", m.snapshotMisses.Load())
	counter("timecache_run_memo_hits_total", "Machine runs a job took from its own run memo instead of simulating again.", m.memoHits.Load())

	counter("timecache_result_cache_hits_total", "Submissions answered from the result cache without simulating.", cs.Hits)
	counter("timecache_result_cache_misses_total", "Submissions that led a new simulation for their fingerprint.", cs.Misses)
	counter("timecache_result_cache_coalesced_total", "Submissions coalesced onto an identical in-flight simulation.", cs.Coalesced)
	counter("timecache_result_cache_evictions_total", "Result-cache entries displaced by the capacity bounds.", cs.Evictions)
	counter("timecache_result_cache_bypass_total", "Submissions that bypassed the result cache (no_cache).", m.cacheBypass.Load())
	gauge("timecache_result_cache_entries", "Result-cache entries currently resident.", int64(cs.Entries))
	gauge("timecache_result_cache_bytes", "Accounted bytes currently resident in the result cache.", cs.Bytes)

	counter("timecache_quota_rejected_total", "Submissions rejected by a per-tenant token quota.", m.quotaRejected.Load())
	counter("timecache_legs_completed_total", "Sweep legs completed by executors (across retries).", m.legsCompleted.Load())
	counter("timecache_leg_retries_total", "Leg re-leases after a retryable executor failure.", m.legRetries.Load())
	counter("timecache_leases_expired_total", "Leg leases that timed out and were re-queued.", m.leasesExpired.Load())
	counter("timecache_jobstore_replayed_jobs_total", "Jobs reconstructed from the write-ahead log at startup.", m.replayedJobs.Load())
	gauge("timecache_jobstore_records", "Live records in the job store.", m.storeRecords.Load())
	gauge("timecache_jobstore_bytes", "Framed bytes in the job store.", m.storeBytes.Load())
	gauge("timecache_jobstore_segments", "Log segments in the job store.", m.storeSegments.Load())
	counter("timecache_jobstore_compactions_total", "Job-store compactions performed.", m.storeCompactions.Load())
	counter("timecache_jobstore_append_errors_total", "Job-store appends that failed (job proceeded without durability).", m.storeAppendErrors.Load())
	fmt.Fprintf(&b, "# HELP %[1]s %[2]s\n# TYPE %[1]s gauge\n%[1]s %[3]g\n", "timecache_jobstore_replay_seconds",
		"Seconds startup replay and compaction of the job store took.", m.replayTime.Seconds())

	counter("timecache_job_legs_total", "Machine runs (experiment legs) dispatched by finished jobs.", res.Legs)
	counter("timecache_sim_cycles_total", "Simulated cycles executed by finished jobs.", res.SimCycles)
	counter("timecache_sim_instructions_total", "Simulated instructions executed by finished jobs.", res.Instructions)
	fmt.Fprintf(&b, "# HELP timecache_cache_accesses_total Cache accesses by finished jobs, per level.\n")
	fmt.Fprintf(&b, "# TYPE timecache_cache_accesses_total counter\n")
	fmt.Fprintf(&b, "timecache_cache_accesses_total{level=\"l1i\"} %d\n", res.L1IAccesses)
	fmt.Fprintf(&b, "timecache_cache_accesses_total{level=\"l1d\"} %d\n", res.L1DAccesses)
	fmt.Fprintf(&b, "timecache_cache_accesses_total{level=\"llc\"} %d\n", res.LLCAccesses)
	counter("timecache_context_switches_total", "Simulated context switches by finished jobs.", res.ContextSwitches)
	counter("timecache_sbit_delayed_loads_total", "Loads TimeCache delayed on a clear s-bit (first access after a context switch), summed over levels.", res.SBitDelayedLoads)

	fmt.Fprintf(&b, "# HELP timecache_jobs_finished_total Jobs reaching a terminal state.\n")
	fmt.Fprintf(&b, "# TYPE timecache_jobs_finished_total counter\n")
	states := make([]string, 0, len(finished))
	for st := range finished {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(&b, "timecache_jobs_finished_total{state=%q} %d\n", st, finished[State(st)])
	}

	summary := func(name, help string, labels string, h telemetry.Histogram) {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(&b, "%s{%squantile=\"%g\"} %d\n", name, labels, q, h.Quantile(q))
		}
		if labels == "" {
			fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
		} else {
			l := strings.TrimSuffix(labels, ",")
			fmt.Fprintf(&b, "%s_sum{%s} %d\n%s_count{%s} %d\n", name, l, h.Sum, name, l, h.Count)
		}
	}
	fmt.Fprintf(&b, "# HELP timecache_job_duration_ms Job wall time in milliseconds.\n")
	fmt.Fprintf(&b, "# TYPE timecache_job_duration_ms summary\n")
	summary("timecache_job_duration_ms", "", "", duration)

	if len(byExp) > 0 {
		fmt.Fprintf(&b, "# HELP timecache_experiment_duration_ms Job wall time in milliseconds, per experiment type.\n")
		fmt.Fprintf(&b, "# TYPE timecache_experiment_duration_ms summary\n")
		names := make([]string, 0, len(byExp))
		for name := range byExp {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			summary("timecache_experiment_duration_ms", "", fmt.Sprintf("experiment=%q,", name), byExp[name])
		}
	}
	return b.String()
}
