// Run fan-out: the machine runs inside one leg — a paired row's baseline and
// defended runs, a matrix row's attack cells and perf runs — share no
// state, so a leg simulates them concurrently. One process-wide bound keeps
// the machines simulating at once to GOMAXPROCS however many legs, jobs and
// service workers are in flight.
package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"timecache/internal/runner"
)

// eachRun runs run(o, i) for every i in [0, n) concurrently and returns the
// results in index order. o is opts with a context that a failing unit
// cancels, so its siblings stop at their next poll. The error returned is
// the lowest-indexed failure that was not caused by that cancellation —
// the error the sequential loop would have returned — or the leg context's
// own error when that ended first.
func eachRun[T any](opts Options, n int, run func(o Options, i int) (T, error)) ([]T, error) {
	parent := opts.ctx()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	o := opts
	o.Ctx = ctx
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	out, err := runner.MapWorkersCtx(ctx, n, runner.Options{Workers: n}, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) {
			r, err := run(o, i)
			if err == nil || (errors.Is(err, context.Canceled) && ctx.Err() != nil && parent.Err() == nil) {
				return r, err // success, or a sibling's failure cancelled it
			}
			mu.Lock()
			if i < firstIdx {
				firstErr, firstIdx = err, i
			}
			mu.Unlock()
			cancel()
			return r, err
		})
	if err != nil && firstErr != nil && parent.Err() == nil {
		return nil, firstErr
	}
	return out, err
}

// runSlots bounds how many machine runs simulate at once in the process.
var runSlots slots

// slots is a counting semaphore sized by GOMAXPROCS at each acquire.
// Waiters are woken together on every release and re-check the bound; a
// leg holds at most a few dozen waiting units, so the broadcast is cheap.
type slots struct {
	mu   sync.Mutex
	busy int
	wake chan struct{} // closed and replaced on every release
}

// acquire takes a slot, or returns ctx's error if it ends first.
func (s *slots) acquire(ctx context.Context) error {
	for {
		s.mu.Lock()
		if s.busy < runtime.GOMAXPROCS(0) {
			s.busy++
			s.mu.Unlock()
			return nil
		}
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// release returns a slot and wakes the waiters.
func (s *slots) release() {
	s.mu.Lock()
	s.busy--
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
	s.mu.Unlock()
}

// withSlot runs fn holding a run slot. A context that ended while the run
// waited for its slot fails it without running fn.
func withSlot[T any](opts Options, fn func() (T, error)) (T, error) {
	var zero T
	if err := runSlots.acquire(opts.ctx()); err != nil {
		return zero, err
	}
	defer runSlots.release()
	if err := opts.ctx().Err(); err != nil {
		return zero, err
	}
	return fn()
}
