// Package runner fans independent simulation runs out across a pool of
// worker goroutines while keeping results exactly as deterministic as a
// sequential loop.
//
// Every experiment sweep in this repository (workload pair × mode × LLC
// size × defense) is embarrassingly parallel: each run constructs its own
// Machine — kernel, hierarchy, physical memory — so runs share no mutable
// state and the per-run results are bit-identical regardless of scheduling.
// The pool only changes *when* runs execute, never *what* they compute;
// results are delivered in index order, so downstream CSV/markdown output
// is byte-identical between -j1 and -jN.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options controls a pool invocation.
type Options struct {
	// Workers is the number of concurrent workers. Values <= 0 (and 1)
	// select runtime.GOMAXPROCS(0) and sequential execution respectively.
	Workers int
	// Progress, when non-nil, is called after each job finishes with the
	// number of completed jobs and the total. Calls are serialized but may
	// arrive in any completion order; done is monotonically increasing.
	Progress func(done, total int)
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MapWorkersCtx runs fn(s, i) for every i in [0, n) across the pool and
// returns the results in index order. newState runs once in each worker
// goroutine (and once total on the sequential path) and its value is handed
// to every fn call that worker makes; the harness uses it to give each
// worker a machine.Pool, so consecutive jobs on one worker reuse a Reset
// machine instead of rebuilding, and because a reset machine is
// indistinguishable from a fresh one, results stay bit-identical at any
// worker count.
//
// On failure the pool stops handing out new jobs, waits for in-flight jobs,
// and returns the error of the lowest-indexed failed job (with a single
// worker that is always the first error, i.e. sequential semantics); the
// partial results are discarded. Cancellation is checked before each job is
// handed out, so a cancelled sweep stops at the next run boundary and
// surfaces ctx.Err() unless an earlier-indexed job already failed on its
// own; runs that are themselves ctx-aware (the harness passes the same
// context into the kernel) stop mid-run too.
func MapWorkersCtx[S, T any](ctx context.Context, n int, opts Options, newState func() S, fn func(s S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, n)
	workers := opts.workers(n)

	if workers == 1 {
		// Sequential fast path: no goroutines, exactly today's behavior.
		s := newState()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(s, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
			if opts.Progress != nil {
				opts.Progress(i+1, n)
			}
		}
		return results, nil
	}

	var (
		next   atomic.Int64 // next job index to hand out
		failed atomic.Bool  // set on first error: stop handing out jobs

		mu       sync.Mutex // guards firstErr/firstIdx, done and Progress calls
		firstErr error
		firstIdx int
		done     int // completed jobs (success only), for Progress
		wg       sync.WaitGroup
	)

	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		failed.Store(true)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					record(i, err)
					return
				}
				r, err := fn(s, i)
				if err != nil {
					record(i, err)
					return
				}
				results[i] = r
				if opts.Progress != nil {
					// Count and report under one lock, so the counts
					// reach Progress in increasing order.
					mu.Lock()
					done++
					opts.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return results, nil
}
