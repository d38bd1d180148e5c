package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"timecache/internal/clock"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
)

// TestReplayAcceptedLegs: accepted records once carried a "legs" member,
// which nothing read. A log written in that form replays to the same jobs,
// byte for byte, as the same log without it.
func TestReplayAcceptedLegs(t *testing.T) {
	log := pinHistory(t)
	legacy, n := jobstore.NewMem(), 0
	err := log.Replay(func(r jobstore.Record) error {
		if r.Kind == jobstore.KindAccepted {
			if bytes.Contains(r.Payload, []byte(`"legs"`)) {
				t.Fatalf("job %s: accepted record still journals legs: %s", r.JobID, r.Payload)
			}
			n++
			body := bytes.TrimSuffix(r.Payload, []byte("}"))
			r.Payload = fmt.Appendf(append([]byte(nil), body...), `,"legs":%d}`, n)
		}
		return legacy.Append(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("history holds no accepted record")
	}
	restart := func(log jobstore.Store) string {
		s := New(Config{Cache: resultcache.New(), Store: copyStore(t, log, nil),
			Clock: clock.NewFake(time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC))})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		defer s.Drain(ctx) // hard-stops what replay re-queued
		return replayView(s)
	}
	if want, got := restart(log), restart(legacy); got != want {
		t.Errorf("a log whose accepted records carry legs replays differently:\n--- without ---\n%s\n--- with ---\n%s", want, got)
	}
}

// stepClock is a fake clock that moves a second forward each time it is
// read.
type stepClock struct{ *clock.Fake }

func (c stepClock) Now() time.Time {
	c.Advance(time.Second)
	return c.Fake.Now()
}

// TestReplaySecondsGauge: timecache_jobstore_replay_seconds is the time
// startup replay and compaction took on the server's clock. A clock that
// stands still reads 0 however long replay took, one that moves on every
// read reads whole seconds, and a server without a store reads 0.
func TestReplaySecondsGauge(t *testing.T) {
	log := pinHistory(t)
	at := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name  string
		clk   clock.WallClock
		store jobstore.Store
		check func(float64) bool
	}{
		{"fake", clock.NewFake(at), copyStore(t, log, nil), func(v float64) bool { return v == 0 }},
		{"step", stepClock{clock.NewFake(at)}, copyStore(t, log, nil), func(v float64) bool { return v >= 1 && v == float64(int(v)) }},
		{"no store", stepClock{clock.NewFake(at)}, nil, func(v float64) bool { return v == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := crashServer(t, Config{Cache: resultcache.New(), Store: tc.store, Clock: tc.clk})
			if v := scrapeMetric(t, ts, "timecache_jobstore_replay_seconds"); !tc.check(v) {
				t.Errorf("timecache_jobstore_replay_seconds = %v", v)
			}
		})
	}
}

// restartJobs is how many jobs BenchmarkRestart's log holds.
const restartJobs = 3000

// buildRestartLog journals a history shaped like perfbench's service-mix to
// a disk log in dir: each of a few small specs runs once, then the rest of
// the jobs repeat a random one of them and are served from the result
// cache.
func buildRestartLog(b *testing.B, dir string) {
	b.Helper()
	store, err := jobstore.Open(dir, jobstore.DiskOptions{Sync: jobstore.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1, Cache: resultcache.New(), Store: store})
	specs := []Spec{smallSpec(), smallSpec(), smallSpec()}
	specs[1].Pairs = []string{"2Xgobmk"}
	specs[2].Pairs = []string{"leslie+gobmk"}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < restartJobs; n++ {
		spec := specs[r.Intn(len(specs))]
		if n < len(specs) {
			spec = specs[n]
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(mustJSON(spec))))
		if rec.Code != http.StatusAccepted {
			b.Fatalf("submit %d: %d %s", n, rec.Code, rec.Body)
		}
		if n < len(specs) {
			// Let the original finish, so every repeat is a hit.
			s.mu.Lock()
			j := s.jobs[s.order[len(s.order)-1]]
			s.mu.Unlock()
			<-j.doneCh
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// copyLog copies the segment files of the log in src to a new directory dst.
func copyLog(b *testing.B, src, dst string) {
	b.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestart times a daemon restart over a service-mix-shaped log of
// restartJobs jobs: jobstore.Open plus New, which replays the log and
// compacts it, the span perfbench's service-mix setup_s times. Each
// iteration restarts on a fresh copy of the log, because startup
// compaction rewrites it. ns/job and allocs/job divide the restart's time
// and heap allocations by the jobs it replays.
func BenchmarkRestart(b *testing.B) {
	tmp := b.TempDir()
	pristine := filepath.Join(tmp, "wal")
	buildRestartLog(b, pristine)
	stop, cancel := context.WithCancel(context.Background())
	cancel()
	var ms runtime.MemStats
	var allocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(tmp, "restart")
		copyLog(b, pristine, dir)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()

		store, err := jobstore.Open(dir, jobstore.DiskOptions{Sync: jobstore.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{Cache: resultcache.New(), Store: store})

		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		if got := len(s.order); got != restartJobs {
			b.Fatalf("restart replayed %d jobs, want %d", got, restartJobs)
		}
		s.Drain(stop)
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	jobs := float64(b.N * restartJobs)
	b.ReportMetric(float64(b.Elapsed()/time.Nanosecond)/jobs, "ns/job")
	b.ReportMetric(float64(allocs)/jobs, "allocs/job")
}
