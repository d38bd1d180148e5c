// Job-scoped run memo: the ablation and the matrix normalize every defended
// run against the same undefended run, and each of their legs simulates that
// baseline itself so that a leg can run alone (on a remote worker, after a
// restart, or sharded). When the legs of one job share a RunMemo, the first
// leg to need a run simulates it and the others take its measurement, so a
// job simulates each distinct machine run once.
package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RunMemo remembers the steady-state measurement of every machine run one
// job completed, keyed by the run's snapKey: the full machine Config, the
// workload spawn recipe and the instruction budgets, the identity the
// snapshot shelf already relies on. It is job-scoped on purpose: a memo
// that outlived its job would be a second result cache under the real one.
// RunJob gives each call a fresh memo; the job service gives each job one,
// shared by that job's in-process legs. The zero value is ready to use, and
// one memo is safe for concurrent legs.
type RunMemo struct {
	mu   sync.Mutex
	runs map[snapKey]*memoRun
	hits atomic.Uint64
}

// memoRun is one run's memo entry. done closes when the owning run ends; m
// is valid, and ok true, only if it succeeded.
type memoRun struct {
	done chan struct{}
	m    measurement
	ok   bool
}

// Hits reports how many runs the memo answered without simulating.
func (r *RunMemo) Hits() uint64 { return r.hits.Load() }

// run returns l's measurement: from the memo when an earlier leg of the job
// completed the same run, otherwise by calling simulate. A run in flight on
// another leg is waited for (or until opts.Ctx ends); if it fails, nothing
// is stored and the next caller simulates it, so the runs a job accounts do
// not depend on how its legs were scheduled. A hit charges no resources,
// takes no machine or snapshot from the pool, and records l's span with
// memo: true over its wait. Under SnapshotCheck a hit is re-run cold and
// must match, as a fork must.
func (r *RunMemo) run(opts Options, l machineRun, simulate func() (measurement, error),
	cold func() (measurement, error)) (measurement, error) {
	start := opts.legStart()
	for {
		r.mu.Lock()
		e, found := r.runs[l.key]
		if !found {
			if r.runs == nil {
				r.runs = map[snapKey]*memoRun{}
			}
			e = &memoRun{done: make(chan struct{})}
			r.runs[l.key] = e
		}
		r.mu.Unlock()
		if !found {
			m, err := simulate()
			if err != nil {
				r.mu.Lock()
				delete(r.runs, l.key)
				r.mu.Unlock()
			} else {
				e.m, e.ok = m, true
			}
			close(e.done)
			return m, err
		}
		select {
		case <-e.done:
		case <-opts.ctx().Done():
			return measurement{}, opts.ctx().Err()
		}
		if !e.ok {
			continue
		}
		r.hits.Add(1)
		if opts.Spans != nil {
			opts.Spans.Span(l.label, "leg", start, opts.wallNow(), map[string]any{"memo": true})
		}
		if opts.SnapshotCheck {
			ref, err := cold()
			if err != nil {
				return measurement{}, fmt.Errorf("harness: snapshot-check cold rerun of memoized %s: %w", l.label, err)
			}
			if ref != e.m {
				return measurement{}, fmt.Errorf("harness: snapshot-check divergence on %s: memoized %+v != cold %+v", l.label, e.m, ref)
			}
		}
		return e.m, nil
	}
}
