package main

import (
	"fmt"
	"os"
	"time"

	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/stats"
)

// simWorkload is a workload that runs one job leg by leg through
// harness.RunJobLeg, the way the job service executes it (spec-pairs and
// defense-matrix).
type simWorkload struct {
	job harness.Job
	// legJob is the job whose reference a leg's one-part table matches.
	legJob func(leg int) harness.Job
	// shapes lists the machine configs the job's legs assemble.
	shapes func() ([]machine.Config, error)
	// paperErrs returns |normalized − paper| in percent from the merged table.
	paperErrs func(*stats.Table) []float64
	// anatomy fills the workload's own per-layer metrics in a traced run.
	anatomy func(ref *refs, vals map[string]float64) ([]round, error)
}

const (
	// setupSamples is how many set-up samples a run times; setup_s is
	// their median.
	setupSamples = 9
	// setupBatch is how many set-ups one sample repeats. One set-up takes
	// about 2 ms on the reference host, so a sample integrates about 0.4 s.
	setupBatch = 200
)

// maxTimed caps the timed phase when the miss-sample floor is slow to
// reach, keeping a whole run inside three minutes.
func maxTimed(cfg config) time.Duration {
	d := 4 * cfg.seconds
	if d > 100*time.Second {
		d = 100 * time.Second
	}
	return d
}

func runSim(cfg config, w simWorkload) (result, error) {
	fmt.Printf("spec: %+v\n", w.job)
	setups, ref, pool, err := simSetups(cfg.root, w)
	if err != nil {
		return result{}, err
	}
	// The untimed warm-up round leaves the pool holding every leg's
	// machine even if the set-up primed a shape the legs do not use, so
	// every timed round does the same work.
	warm, err := measureRound(simRound(w, ref, pool, nil))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("phases: setup_s=%.6f warm_pool_misses=%d\n", setups, warm.c.PoolMisses)

	if cfg.trace {
		spans := &legSpans{}
		vals := map[string]float64{}
		plain, traced, err := tracedPass(cfg, simRound(w, ref, pool, nil), simRound(w, ref, pool, spans), spans, vals)
		if err != nil {
			return result{}, err
		}
		anat, err := w.anatomy(ref, vals)
		if err != nil {
			return result{}, err
		}
		ms, err := layerMetrics(vals)
		if err != nil {
			return result{}, err
		}
		attempted, failed := tally([]round{warm}, plain, traced, anat)
		return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
	}

	rs, timed, err := timedRounds(cfg.seconds, maxTimed(cfg), simRound(w, ref, pool, nil))
	if err != nil {
		return result{}, err
	}
	guard(rs)
	ms, err := endToEnd(setups, rs, timed)
	if err != nil {
		return result{}, err
	}
	attempted, failed := tally([]round{warm}, rs)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// simSetups times the set-up: reading the references, validating the job,
// and assembling one machine per leg shape into a fresh pool. Each sample
// repeats the set-up setupBatch times and records the time per set-up. The
// last set-up's references and pool serve the rest of the run.
func simSetups(root string, w simWorkload) ([]float64, *refs, *machine.Pool, error) {
	var samples []float64
	var ref *refs
	var pool *machine.Pool
	for s := 0; s < setupSamples; s++ {
		t0 := time.Now()
		for k := 0; k < setupBatch; k++ {
			var err error
			if ref, err = loadRefs(root); err != nil {
				return nil, nil, nil, err
			}
			if err := w.job.Validate(); err != nil {
				return nil, nil, nil, err
			}
			shapes, err := w.shapes()
			if err != nil {
				return nil, nil, nil, err
			}
			pool = machine.NewPool()
			for _, c := range shapes {
				pool.Put(machine.New(c))
			}
		}
		samples = append(samples, time.Since(t0).Seconds()/setupBatch)
	}
	return samples, ref, pool, nil
}

// simRound runs the job leg by leg with every leg cold (SnapshotOff), on
// machines from pool. Each leg's one-part table is checked against its
// reference, and the merged table against the whole job's.
func simRound(w simWorkload, ref *refs, pool *machine.Pool, spans *legSpans) roundFunc {
	return func() (round, error) {
		var rd round
		ps0 := pool.Stats()
		acc := &harness.ResourceAccount{}
		opts := goldenOpts()
		opts.Pool, opts.Account = pool, acc
		if spans != nil {
			opts.Spans = spans
		}
		n, err := harness.JobLegs(w.job)
		if err != nil {
			return rd, err
		}
		parts := make([]*stats.Table, n)
		for leg := 0; leg < n; leg++ {
			rd.attempted++
			t0 := time.Now()
			tab, err := harness.RunJobLeg(w.job, leg, opts)
			rd.ops = append(rd.ops, op{ms: msSince(t0)})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s leg %d: %v\n", w.job.Experiment, leg, err)
				rd.failed++
				continue
			}
			parts[leg] = tab
			want, err := ref.jobCSV(w.legJob(leg))
			if err != nil {
				return rd, err
			}
			if !checkCSV(fmt.Sprintf("%s leg %d", w.job.Experiment, leg), tab.CSV(), want) {
				rd.failed++
			}
		}
		rd.attempted++ // the merged job table
		merged, err := harness.MergeLegTables(w.job, parts)
		want, werr := ref.jobCSV(w.job)
		if werr != nil {
			return rd, werr
		}
		if err != nil || !checkCSV(string(w.job.Experiment)+" job", merged.CSV(), want) {
			rd.failed++
		} else {
			rd.paperErrs = w.paperErrs(merged)
		}
		ps := pool.Stats()
		ps.Hits -= ps0.Hits
		ps.Misses -= ps0.Misses
		ps.SnapshotHits -= ps0.SnapshotHits
		ps.SnapshotMisses -= ps0.SnapshotMisses
		rd.c = resourceCounts(acc.Snapshot(), ps)
		rd.c.Jobs = 1
		return rd, nil
	}
}

// resourceCounts lifts a job's resource account and pool counters into the
// guard's counts.
func resourceCounts(r harness.Resources, ps machine.PoolStats) counts {
	return counts{
		Legs:             r.Legs,
		Instructions:     r.Instructions,
		SimCycles:        r.SimCycles,
		ContextSwitches:  r.ContextSwitches,
		L1IAccesses:      r.L1IAccesses,
		L1DAccesses:      r.L1DAccesses,
		LLCAccesses:      r.LLCAccesses,
		SBitDelayedLoads: r.SBitDelayedLoads,
		PoolHits:         ps.Hits,
		PoolMisses:       ps.Misses,
		SnapshotHits:     ps.SnapshotHits,
		SnapshotMisses:   ps.SnapshotMisses,
	}
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
