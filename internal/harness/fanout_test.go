package harness

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// spanTimes is a SpanSink that keeps every span's interval and args.
type spanTimes struct {
	mu    sync.Mutex
	spans []timedSpan
}

type timedSpan struct {
	name       string
	start, end time.Time
	memo       bool
}

func (s *spanTimes) Span(name, _ string, start, end time.Time, args map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, timedSpan{name: name, start: start, end: end, memo: args["memo"] == true})
}

// maxDepth returns the largest number of simulated (non-memo) spans open at
// one instant. A span that ends when another starts does not overlap it.
func (s *spanTimes) maxDepth() int {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, sp := range s.spans {
		if !sp.memo {
			edges = append(edges, edge{sp.start, 1}, edge{sp.end, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at.Equal(edges[j].at) {
			return edges[i].delta < edges[j].delta
		}
		return edges[i].at.Before(edges[j].at)
	})
	depth, max := 0, 0
	for _, e := range edges {
		depth += e.delta
		if depth > max {
			max = depth
		}
	}
	return max
}

// TestRunFanOutBound: at Jobs: 4 a matrix job has up to four legs in flight,
// each fanning out its attack and perf runs, yet no more than GOMAXPROCS
// machine runs simulate at once. Memo hits hold no slot, so their spans do
// not count. With two or more procs, a table2 leg's baseline and TimeCache
// runs overlap.
func TestRunFanOutBound(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	procs := runtime.GOMAXPROCS(0)
	spans := &spanTimes{}
	opts := memoOpts()
	opts.Jobs, opts.Spans = 4, spans
	if _, err := RunJob(memoMatrix, opts); err != nil {
		t.Fatal(err)
	}
	if len(spans.spans) == 0 {
		t.Fatal("the matrix job recorded no spans")
	}
	if d := spans.maxDepth(); d > procs {
		t.Fatalf("%d machine runs simulated at once, bound is GOMAXPROCS = %d", d, procs)
	}

	if procs < 2 {
		t.Skip("GOMAXPROCS < 2: a leg's runs cannot overlap")
	}
	spans = &spanTimes{}
	opts = memoOpts()
	opts.Spans = spans
	if _, err := RunJob(Job{Experiment: ExpTableII, Pairs: []string{"2Xgobmk"}}, opts); err != nil {
		t.Fatal(err)
	}
	if len(spans.spans) != 2 || spans.maxDepth() != 2 {
		t.Fatalf("table2 leg spans %+v: want its two runs to overlap", spans.spans)
	}
}

// TestRunFanOutFirstError: a leg whose second unit fails returns that
// unit's error, as the sequential loop did, not the cancellation its
// failure caused in the first unit; the first unit sees its context
// cancelled. A leg whose own context ends returns that context's error.
func TestRunFanOutFirstError(t *testing.T) {
	boom := errors.New("unit 1 failed")
	started := make(chan struct{})
	var sawCancel bool
	_, err := eachRun(Options{}, 2, func(o Options, i int) (int, error) {
		if i == 1 {
			<-started
			return 0, boom
		}
		close(started)
		select {
		case <-o.ctx().Done():
			sawCancel = true
			return 0, o.ctx().Err()
		case <-time.After(time.Minute):
			return 0, nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("eachRun returned %v, want the second unit's error", err)
	}
	if !sawCancel {
		t.Fatal("the first unit's context was not cancelled by its sibling's failure")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := eachRun(Options{Ctx: ctx}, 3, func(o Options, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("cancelled leg returned %v, %v; want context.Canceled", out, err)
	}
	out, err = eachRun(Options{}, 3, func(o Options, i int) (int, error) { return i * i, nil })
	if err != nil || len(out) != 3 || out[2] != 4 {
		t.Fatalf("eachRun = %v, %v; want [0 1 4]", out, err)
	}
}
