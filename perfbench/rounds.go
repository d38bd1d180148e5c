package main

import (
	"fmt"
	"os"
	"reflect"
	"time"
)

// counts are one round's exact anchors. A pure speed change leaves every
// field identical; the guard fails any timed round whose counts differ from
// the first timed round's. Mallocs alone is compared with a tolerance
// (mallocTol): the Go runtime makes a few allocations of its own, so it
// repeats to a few parts per million, not exactly.
type counts struct {
	Jobs             uint64
	Legs             uint64
	Instructions     uint64
	SimCycles        uint64
	ContextSwitches  uint64
	L1IAccesses      uint64
	L1DAccesses      uint64
	LLCAccesses      uint64
	SBitDelayedLoads uint64
	PoolHits         uint64
	PoolMisses       uint64
	SnapshotHits     uint64
	SnapshotMisses   uint64
	CacheHits        uint64
	CacheMisses      uint64
	CacheCoalesced   uint64
	WALRecords       uint64
	Mallocs          uint64
}

// op is one timed operation: an operation that ran the simulator (a miss)
// or one answered from a stored result (a hit).
type op struct {
	hit bool
	ms  float64
}

// round is one repetition of a workload's fixed unit of work.
type round struct {
	wall       time.Duration
	c          counts
	allocBytes uint64
	gcs        uint32
	ops        []op
	attempted  int
	failed     int
	// paperErrs are |normalized − paper| in percent for every Table II row
	// the round produced.
	paperErrs []float64
	// walBytes is the write-ahead log growth (service-mix only).
	walBytes uint64
}

// roundFunc runs one round and fills everything but the wall time and
// allocation counters.
type roundFunc func() (round, error)

// measureRound runs fn and stamps its wall time and allocation counters.
func measureRound(fn roundFunc) (round, error) {
	m0, b0, g0 := memNow()
	t0 := time.Now()
	r, err := fn()
	r.wall = time.Since(t0)
	m1, b1, g1 := memNow()
	r.c.Mallocs, r.allocBytes, r.gcs = m1-m0, b1-b0, g1-g0
	return r, err
}

// mallocTol is the relative Mallocs difference the guard tolerates.
const mallocTol = 1e-3

// timedRounds repeats fn until at least d has passed and enough miss
// samples exist for a reportable p90, capped at maxDur. It returns the
// rounds and the total timed duration.
func timedRounds(d, maxDur time.Duration, fn roundFunc) ([]round, time.Duration, error) {
	var rs []round
	misses := 0
	start := time.Now()
	for {
		r, err := measureRound(fn)
		if err != nil {
			return nil, 0, err
		}
		rs = append(rs, r)
		for _, o := range r.ops {
			if !o.hit {
				misses++
			}
		}
		el := time.Since(start)
		if el >= maxDur || (el >= d && misses >= samplesFor(0.9)) {
			return rs, el, nil
		}
	}
}

// guard applies the exact-count check: every round must repeat the first
// round's counts. A mismatching round counts all its operations as failed.
func guard(rs []round) {
	if len(rs) == 0 {
		return
	}
	ref := rs[0].c
	for i := 1; i < len(rs); i++ {
		if !sameCounts(ref, rs[i].c) {
			fmt.Fprintf(os.Stderr, "perfbench: round %d counts differ from round 0:\n  round 0: %+v\n  round %d: %+v\n", i, ref, i, rs[i].c)
			rs[i].failed = rs[i].attempted
		}
	}
}

func sameCounts(a, b counts) bool {
	ma, mb := a.Mallocs, b.Mallocs
	a.Mallocs, b.Mallocs = 0, 0
	if !reflect.DeepEqual(a, b) {
		return false
	}
	diff := float64(ma) - float64(mb)
	if diff < 0 {
		diff = -diff
	}
	return diff <= mallocTol*float64(ma)
}

// tally sums attempts and failures over rounds.
func tally(rs ...[]round) (attempted, failed int) {
	for _, set := range rs {
		for _, r := range set {
			attempted += r.attempted
			failed += r.failed
		}
	}
	return attempted, failed
}

// endToEnd reduces a workload's set-ups and timed rounds to the end-to-end
// metrics of BENCHMARK.json. Throughputs integrate the whole timed phase;
// per-round quantities are medians over rounds.
func endToEnd(setups []float64, rs []round, timed time.Duration) (map[string]metric, error) {
	var instrs, legs, jobs uint64
	var walls, allocsPerK, allocMB, misses, errs []float64
	for _, r := range rs {
		instrs += r.c.Instructions
		legs += r.c.Legs
		jobs += r.c.Jobs
		walls = append(walls, r.wall.Seconds())
		if r.c.Instructions > 0 {
			allocsPerK = append(allocsPerK, float64(r.c.Mallocs)/float64(r.c.Instructions)*1000)
		}
		allocMB = append(allocMB, float64(r.allocBytes)/(1<<20))
		for _, o := range r.ops {
			if !o.hit {
				misses = append(misses, o.ms)
			}
		}
		errs = append(errs, r.paperErrs...)
	}
	p50, _ := percentile(misses, 0.5)
	p90, ok90 := percentile(misses, 0.9)
	if !ok90 {
		return nil, fmt.Errorf("only %d miss samples: p90 needs %d", len(misses), samplesFor(0.9))
	}
	if instrs == 0 || len(errs) == 0 {
		return nil, fmt.Errorf("timed phase simulated %d instructions and %d Table II rows", instrs, len(errs))
	}
	attempted, failed := tally(rs)
	secs := timed.Seconds()
	fmt.Printf("samples: rounds=%d miss_ops=%d timed_s=%.3f setups=%d\n", len(rs), len(misses), secs, len(setups))
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"wall_s":             {median(walls), "s"},
		"minstr_per_s":       {float64(instrs) / secs / 1e6, "Minstr/s"},
		"legs_per_s":         {float64(legs) / secs, "1/s"},
		"jobs_per_s":         {float64(jobs) / secs, "1/s"},
		"miss_p50_ms":        {p50, "ms"},
		"miss_p90_ms":        {p90, "ms"},
		"allocs_per_kinstr":  {median(allocsPerK), "count"},
		"alloc_mb":           {median(allocMB), "MB"},
		"peak_rss_mb":        {float64(maxRSSKB()) / 1024, "MB"},
		"ok_rate":            {float64(attempted-failed) / float64(attempted), "fraction"},
		"paper_norm_err_pct": {mean(errs), "%"},
	}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run prints all of them; a layer a workload bypasses
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"kernel.ns_per_instr", "ns"},
	{"kernel.allocs_per_instr", "count"},
	{"kernel.translate_ns", "ns"},
	{"kernel.switches_per_kinstr", "count"},
	{"workload.step_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"cache.accesses_per_instr", "count"},
	{"cache.llc_mpki", "count"},
	{"cache.sbit_delayed_per_kinstr", "count"},
	{"core.switch_us", "us"},
	{"reconcile.unexplained_ns_per_instr", "ns"},
	{"machine.new_us", "us"},
	{"machine.reset_us", "us"},
	{"machine.snapshot_ms", "ms"},
	{"machine.fork_us", "us"},
	{"machine.snapshot_hits", "count"},
	{"machine.pool_hits", "count"},
	{"attack.flush-reload_ms", "ms"},
	{"attack.flush-flush_ms", "ms"},
	{"attack.prime-probe_ms", "ms"},
	{"attack.lru_ms", "ms"},
	{"attack.coherence_ms", "ms"},
	{"attack.smt_ms", "ms"},
	{"attack.llc-occupancy_ms", "ms"},
	{"harness.leg_ms_p50", "ms"},
	{"harness.leg_ms_p90", "ms"},
	{"harness.legs", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.render_ms_p50", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_p90_ms", "ms"},
	{"resultcache.hit_ratio", "fraction"},
	{"resultcache.coalesced", "count"},
	{"jobstore.replay_ms", "ms"},
	{"jobstore.records_per_job", "count"},
	{"jobstore.bytes_per_job", "B"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics renders a traced run's values over the full per-layer list,
// rejecting names the list does not declare.
func layerMetrics(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
		delete(vals, m.name)
	}
	for name := range vals {
		return nil, fmt.Errorf("per-layer metric %q is not declared", name)
	}
	return out, nil
}

// tracedPass runs the untraced and the traced halves of a --trace 1 run
// and fills the metrics every workload shares: leg latency from the span
// sink, pool and snapshot hits, GC share and cycles, and tracing overhead
// (median traced round wall minus median untraced round wall).
func tracedPass(cfg config, plain, traced roundFunc, spans *legSpans, vals map[string]float64) ([]round, []round, error) {
	half := cfg.seconds / 2
	maxDur := 2 * cfg.seconds
	rsPlain, _, err := timedRounds(half, maxDur, plain)
	if err != nil {
		return nil, nil, err
	}
	gc0, cpu0 := gcCPU()
	rsTraced, _, err := timedRounds(half, maxDur, traced)
	if err != nil {
		return nil, nil, err
	}
	gc1, cpu1 := gcCPU()
	guard(rsPlain)
	guard(rsTraced)

	var wp, wt, gcs, hits, snaps []float64
	for _, r := range rsPlain {
		wp = append(wp, r.wall.Seconds())
	}
	for _, r := range rsTraced {
		wt = append(wt, r.wall.Seconds())
		gcs = append(gcs, float64(r.gcs))
		hits = append(hits, float64(r.c.PoolHits))
		snaps = append(snaps, float64(r.c.SnapshotHits))
	}
	vals["machine.pool_hits"], vals["machine.snapshot_hits"] = median(hits), median(snaps)
	over := median(wt) - median(wp)
	vals["trace.overhead_s"] = over
	vals["trace.overhead_pct"] = over / median(wp) * 100
	if cpu1 > cpu0 {
		vals["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	vals["runtime.gc_cycles"] = median(gcs)
	legMS := spans.durations()
	vals["harness.leg_ms_p50"], _ = percentile(legMS, 0.5)
	vals["harness.leg_ms_p90"], _ = percentile(legMS, 0.9)
	vals["harness.legs"] = float64(len(legMS)) / float64(len(rsTraced))
	return rsPlain, rsTraced, nil
}
