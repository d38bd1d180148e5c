package harness

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"timecache/internal/defense"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// memoOpts keeps the memo tests' jobs small.
func memoOpts() Options {
	return Options{InstrsPerProc: 20_000, WarmupInstrs: 10_000}
}

// memoMatrix is a 7-defense, 1-pair matrix with one cheap attack column.
var memoMatrix = Job{Experiment: ExpMatrix, Pairs: []string{"2Xgobmk"}, Attacks: []string{"smt"}, AttackBits: 8}

// legByLeg runs every leg of job with no shared memo, as legs on separate
// workers do, and returns the merged CSV and the summed account.
func legByLeg(t *testing.T, job Job, opts Options) (string, Resources) {
	t.Helper()
	n, err := JobLegs(job)
	if err != nil {
		t.Fatal(err)
	}
	account := &ResourceAccount{}
	opts.Account = account
	parts := make([]*stats.Table, n)
	for leg := range parts {
		if parts[leg], err = RunJobLeg(job, leg, opts); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := MergeLegTables(job, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tab.CSV(), account.Snapshot()
}

// runWhole runs job through RunJob and returns its CSV and account.
func runWhole(t *testing.T, job Job, opts Options) (string, Resources) {
	t.Helper()
	account := &ResourceAccount{}
	opts.Account = account
	tab, err := RunJob(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tab.CSV(), account.Snapshot()
}

// TestRunMemoOnce: a job simulates each distinct machine run once. The
// 2Xgobmk ablation needs 7 distinct runs (one per registry kind) where its
// legs alone run 13 (every defended leg re-runs the baseline), and a
// 7-defense, 1-pair matrix needs 7 perf runs where its legs alone run 13.
// The tables are byte-identical either way.
func TestRunMemoOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	kinds := uint64(len(defense.Kinds()))
	for _, tc := range []struct {
		name           string
		job            Job
		attacks        uint64 // attack runs, accounted as legs without a kernel
		memoRuns, legs uint64 // machine runs with and without a shared memo
	}{
		{"ablation", Job{Experiment: ExpAblation, Pairs: []string{"2Xgobmk"}}, 0, kinds, 2*kinds - 1},
		{"matrix", memoMatrix, kinds, kinds, 2*kinds - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, alone := legByLeg(t, tc.job, memoOpts())
			got, whole := runWhole(t, tc.job, memoOpts())
			if got != want {
				t.Fatalf("memoized job diverged from its legs run alone\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			if whole.Legs != tc.attacks+tc.memoRuns {
				t.Errorf("RunJob accounted %d runs, want %d attack + %d machine runs", whole.Legs, tc.attacks, tc.memoRuns)
			}
			if alone.Legs != tc.attacks+tc.legs {
				t.Errorf("legs alone accounted %d runs, want %d attack + %d machine runs", alone.Legs, tc.attacks, tc.legs)
			}
			if whole.Instructions >= alone.Instructions {
				t.Errorf("memoized job executed %d instructions, legs alone %d: nothing was saved", whole.Instructions, alone.Instructions)
			}
		})
	}
}

// TestRunMemoParallelAccount: the account of a memoized job does not depend
// on how its legs are scheduled. At -j4 a leg may wait on a baseline another
// leg is running; every distinct run is still simulated and charged once.
// The race job runs this under -race.
func TestRunMemoParallelAccount(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, job := range map[string]Job{
		"ablation": {Experiment: ExpAblation, Pairs: []string{"2Xgobmk"}},
		"matrix":   memoMatrix,
	} {
		t.Run(name, func(t *testing.T) {
			seq := memoOpts()
			seq.Jobs = 1
			par := memoOpts()
			par.Jobs = 4
			want, wantRes := runWhole(t, job, seq)
			got, gotRes := runWhole(t, job, par)
			if got != want {
				t.Errorf("-j4 table diverged from -j1\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			if gotRes != wantRes {
				t.Errorf("-j4 account %+v != -j1 account %+v", gotRes, wantRes)
			}
		})
	}
}

// TestRunMemoSnapshotCheck: under SnapshotCheck every memo hit is re-run
// cold and must match. A real job passes; a tampered entry is caught.
func TestRunMemoSnapshotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := memoOpts()
	opts.SnapshotCheck = true
	memo := &RunMemo{}
	opts.Memo = memo
	want, _ := runWhole(t, Job{Experiment: ExpAblation, Pairs: []string{"2Xgobmk"}}, memoOpts())
	got, _ := runWhole(t, Job{Experiment: ExpAblation, Pairs: []string{"2Xgobmk"}}, opts)
	if got != want {
		t.Fatalf("snapshot-checked job diverged\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if n, legs := memo.Hits(), uint64(len(ablationConfigs())-1); n != legs {
		t.Fatalf("memo hits = %d, want %d (every defended leg reuses the baseline)", n, legs)
	}

	pair := workload.Pair{Label: "2Xlbm", A: "lbm", B: "lbm"}
	opts = memoOpts().withDefaults()
	opts.Memo = &RunMemo{}
	if _, err := runSpec(nil, pair, defense.None, "baseline", opts, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range opts.Memo.runs {
		e.m.cycles++
	}
	opts.SnapshotCheck = true
	if _, err := runSpec(nil, pair, defense.None, "baseline", opts, nil); err == nil {
		t.Fatal("snapshot-check accepted a memo hit that differs from its cold rerun")
	}
}

// TestRunMemoTelemetryBypass: a telemetry run observes its whole run, so it
// neither reads nor fills the memo.
func TestRunMemoTelemetryBypass(t *testing.T) {
	pair := workload.Pair{Label: "2Xnamd", A: "namd", B: "namd"}
	opts := memoOpts()
	opts.Telemetry = &telemetry.Config{}
	opts.Memo = &RunMemo{}
	for i := 0; i < 2; i++ {
		if _, err := runSpecPair(nil, pair, opts); err != nil {
			t.Fatal(err)
		}
	}
	if n := opts.Memo.Hits(); n != 0 || len(opts.Memo.runs) != 0 {
		t.Fatalf("telemetry runs used the memo: %d hits, %d entries", n, len(opts.Memo.runs))
	}
}

// spanLog is a SpanSink that keeps every span's name and args.
type spanLog struct {
	mu    sync.Mutex
	names []string
	args  []map[string]any
}

func (s *spanLog) Span(name, _ string, _, _ time.Time, args map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.names = append(s.names, name)
	s.args = append(s.args, args)
}

// TestRunMemoSingleflight drives the memo with a stand-in simulation: a
// caller that finds its run in flight waits for it; a waiter whose own
// context ends gives up; a failed run stores nothing, so the next caller
// simulates it; and a hit records its span with memo: true.
func TestRunMemoSingleflight(t *testing.T) {
	memo := &RunMemo{}
	spans := &spanLog{}
	l := machineRun{label: "x/baseline", key: snapKey{kind: "spec", a: "x", b: "x"}}
	opts := Options{Spans: spans}
	var calls int
	var mu sync.Mutex
	sim := func(m measurement, err error) func() (measurement, error) {
		return func() (measurement, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return m, err
		}
	}
	never := func() (measurement, error) { t.Error("cold rerun without SnapshotCheck"); return measurement{}, nil }

	// The owner fails while a waiter waits: the waiter then simulates.
	started, gate := make(chan struct{}), make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		fail := sim(measurement{}, errors.New("boom"))
		_, err := memo.run(opts, l, func() (measurement, error) {
			close(started)
			<-gate
			return fail()
		}, never)
		owner <- err
	}()
	<-started
	// A waiter whose context is already over returns its context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	late := opts
	late.Ctx = ctx
	if _, err := memo.run(late, l, sim(measurement{}, nil), never); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	waiter := make(chan measurement, 1)
	go func() {
		m, err := memo.run(opts, l, sim(measurement{cycles: 7}, nil), never)
		if err != nil {
			t.Error(err)
		}
		waiter <- m
	}()
	close(gate)
	if err := <-owner; err == nil {
		t.Fatal("failed owner returned no error")
	}
	if m := <-waiter; m.cycles != 7 {
		t.Fatalf("waiter got %+v, want the run it simulated after the owner failed", m)
	}
	// The stored run is now a hit.
	m, err := memo.run(opts, l, sim(measurement{cycles: 99}, nil), never)
	if err != nil || m.cycles != 7 {
		t.Fatalf("hit = %+v, %v; want the stored run", m, err)
	}
	if calls != 2 || memo.Hits() != 1 {
		t.Fatalf("%d simulations and %d hits, want 2 and 1", calls, memo.Hits())
	}
	if len(spans.args) != 1 || spans.names[0] != l.label || spans.args[0]["memo"] != true {
		t.Fatalf("hit spans = %v %v, want one %q span with memo: true", spans.names, spans.args, l.label)
	}
}
