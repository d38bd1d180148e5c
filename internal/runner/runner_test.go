package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// mapN runs fn over [0, n) through MapWorkersCtx with no per-worker state.
func mapN(n int, opts Options, fn func(i int) (int, error)) ([]int, error) {
	return MapWorkersCtx(context.Background(), n, opts, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (int, error) { return fn(i) })
}

// TestMapOrdering checks results land in index order regardless of the
// completion order the scheduler produces.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 64
		got, err := mapN(n, Options{Workers: workers}, func(i int) (int, error) {
			// Earlier jobs sleep longer so completion order inverts.
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapError checks a failing job cancels the pool and its error (not a
// later job's) surfaces.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := mapN(1000, Options{Workers: 4}, func(i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("job %d: %w", i, boom)
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("pool ran every job despite an early failure")
	}
}

// TestMapErrorLowestIndex checks the deterministic-error rule: when several
// jobs fail, the lowest-indexed observed failure wins.
func TestMapErrorLowestIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	_, err := mapN(2, Options{Workers: 2}, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(time.Millisecond) // fail after job 1 has already failed
			return 0, errLow
		}
		return 0, errHigh
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
}

// TestMapSequentialErrorSemantics checks Workers=1 returns the first error
// without running later jobs, exactly like a plain loop.
func TestMapSequentialErrorSemantics(t *testing.T) {
	var ran []int
	_, err := mapN(10, Options{Workers: 1}, func(i int) (int, error) {
		ran = append(ran, i)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("err = %v, want stop", err)
	}
	if len(ran) != 3 {
		t.Fatalf("ran %v, want exactly [0 1 2]", ran)
	}
}

// TestProgress checks the callback reports monotonically increasing counts
// up to n.
func TestProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls []int
		_, err := mapN(20, Options{Workers: workers, Progress: func(d, total int) {
			if total != 20 {
				t.Fatalf("total = %d, want 20", total)
			}
			calls = append(calls, d)
		}}, func(i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != 20 {
			t.Fatalf("workers=%d: %d progress calls, want 20", workers, len(calls))
		}
		for i := 1; i < len(calls); i++ {
			if calls[i] <= calls[i-1] {
				t.Fatalf("workers=%d: progress not monotonic: %v", workers, calls)
			}
		}
	}
}

// TestProgressMonotonicUnderContention stresses the Progress contract with
// many workers finishing at once while a slow callback holds the lock, so
// several finished workers always queue for it: every count must still
// arrive exactly once and in increasing order.
func TestProgressMonotonicUnderContention(t *testing.T) {
	const n = 400
	for _, workers := range []int{4, 8} {
		for round := 0; round < 5; round++ {
			var calls []int
			_, err := mapN(n, Options{Workers: workers, Progress: func(d, total int) {
				calls = append(calls, d)
				for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
				}
			}}, func(i int) (int, error) { return i, nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) != n {
				t.Fatalf("workers=%d: %d progress calls, want %d", workers, len(calls), n)
			}
			for i, d := range calls {
				if d != i+1 {
					t.Fatalf("workers=%d round %d: call %d reported %d, want %d (progress went backwards)",
						workers, round, i, d, i+1)
				}
			}
		}
	}
}

// TestMapEmpty checks n=0 is a no-op.
func TestMapEmpty(t *testing.T) {
	got, err := mapN(0, Options{}, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

// TestMapEveryJobRunsOnce checks a parallel pool runs each index exactly
// once.
func TestMapEveryJobRunsOnce(t *testing.T) {
	var sum atomic.Int64
	if _, err := mapN(100, Options{Workers: 8}, func(i int) (int, error) {
		sum.Add(int64(i))
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}

// TestMapCancelled checks a cancelled context stops the pool and surfaces
// ctx.Err().
func TestMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := MapWorkersCtx(ctx, 10, Options{Workers: workers}, func() struct{} { return struct{}{} },
			func(struct{}, int) (int, error) { return 0, nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
