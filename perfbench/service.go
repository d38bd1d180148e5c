package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"timecache/internal/harness"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
	"timecache/internal/server"
	"timecache/internal/stats"
)

// catalogSpec is one job spec the service-mix clients submit.
type catalogSpec struct {
	ref    string // reference name (perfbench/expected/<ref>.csv unless golden)
	golden string // results/golden stem when the spec is a golden spec
	job    harness.Job
}

// spec is the wire form, at the golden budgets.
func (c catalogSpec) spec() server.Spec {
	return server.Spec{
		Experiment:    c.job.Experiment,
		Pairs:         c.job.Pairs,
		InstrsPerProc: 60_000,
		WarmupInstrs:  40_000,
	}
}

// serviceCatalog is every spec service-mix submits: the golden table2
// slice, each two of its pairs, and the defense ablation on 2Xgobmk. Every
// miss runs 4 to 7 legs, so the miss p50 does not sit on the edge between
// two size classes.
// Their legs use 12 distinct warm-snapshot keys, below the 16 the
// executor's pool shelves, so after the warm-up round every miss forks a
// shelved snapshot however the two clients interleave (checkShelf).
var serviceCatalog = []catalogSpec{
	{ref: "table2_slice", golden: "table2_slice", job: harness.Job{Experiment: harness.ExpTableII, Pairs: specSlice}},
	{ref: "table2-lbm-gobmk", job: harness.Job{Experiment: harness.ExpTableII, Pairs: []string{"2Xlbm", "2Xgobmk"}}},
	{ref: "table2-gobmk-leslie", job: harness.Job{Experiment: harness.ExpTableII, Pairs: []string{"2Xgobmk", "leslie+gobmk"}}},
	{ref: "table2-leslie-lbm", job: harness.Job{Experiment: harness.ExpTableII, Pairs: []string{"leslie+gobmk", "2Xlbm"}}},
	{ref: "ablation-2Xgobmk", job: harness.Job{Experiment: harness.ExpAblation, Pairs: []string{"2Xgobmk"}}},
}

const (
	// repeatFrac is the share of submissions that repeat a completed spec,
	// the mix EXPERIMENTS.md documents for timecache-bench-client
	// (-repeat-frac 0.5).
	repeatFrac = 0.5
	// historyJobs is how many jobs the prepared write-ahead log holds; a
	// daemon restart replays all of them (the set-up being timed).
	historyJobs = 4000
	// serviceClients is the closed loop's client count (= nproc of the
	// reference host).
	serviceClients = 2
	// serviceSetups is how many restarts one run times.
	serviceSetups = 9
	// shelfCap is the snapshot shelf size of machine.Pool at this commit
	// (distinct warm-snapshot keys).
	shelfCap = 16
)

// repeatsPerRound is how many hits a round issues besides one miss per
// catalog spec.
var repeatsPerRound = int(float64(len(serviceCatalog)) * repeatFrac / (1 - repeatFrac))

// item is one submission in a round's plan: a catalog spec, first
// submitted as the round's original (a miss) and later repeated (a hit).
type item struct {
	spec   int
	repeat bool
}

// plan orders one round: each catalog spec once as an original, plus
// repeatsPerRound repeats, each placed after its original.
func plan(r *rand.Rand) []item {
	var seq []item
	for _, i := range r.Perm(len(serviceCatalog)) {
		seq = append(seq, item{spec: i})
	}
	for k := 0; k < repeatsPerRound; k++ {
		s := r.Intn(len(serviceCatalog))
		pos := 0
		for i, it := range seq {
			if it.spec == s && !it.repeat {
				pos = i
			}
		}
		at := pos + 1 + r.Intn(len(seq)-pos)
		seq = append(seq[:at], append([]item{{spec: s, repeat: true}}, seq[at:]...)...)
	}
	return seq
}

// daemon is one in-process job service on a disk store.
type daemon struct {
	store *jobstore.Disk
	cache *resultcache.Cache
	srv   *server.Server
	http  *httptest.Server
}

func openDaemon(dir string) (*daemon, time.Duration, error) {
	store, err := jobstore.Open(dir, jobstore.DiskOptions{Sync: jobstore.SyncNone})
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{store: store, cache: resultcache.New()}
	t0 := time.Now()
	d.srv = server.New(server.Config{Workers: 1, Cache: d.cache, Store: store})
	return d, time.Since(t0), nil
}

func (d *daemon) serve() { d.http = httptest.NewServer(d.srv.Handler()) }

func (d *daemon) close() error {
	if d.http != nil {
		d.http.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	if err := d.store.Close(); err != nil {
		return err
	}
	return derr
}

func runServiceMix(cfg config) (result, error) {
	ref, err := loadRefs(cfg.root)
	if err != nil {
		return result{}, err
	}
	dir, cleanup, err := scratchDir(cfg.root)
	if err != nil {
		return result{}, err
	}
	defer cleanup()

	// Untimed preparation: a daemon journals historyJobs jobs to a WAL.
	pristine := filepath.Join(dir, "wal")
	t0 := time.Now()
	if err := prepareHistory(pristine, cfg.seed); err != nil {
		return result{}, fmt.Errorf("prepare history: %w", err)
	}
	prep := time.Since(t0)

	// Set-up is a daemon restart: open the store and replay the log
	// through server.New. Each restart starts from a copy of the prepared
	// log, because startup compaction rewrites it.
	var setups, replays []float64
	var d *daemon
	for k := 0; k < serviceSetups; k++ {
		wal := filepath.Join(dir, fmt.Sprintf("wal-%d", k))
		if err := copyDir(pristine, wal); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		nd, replay, err := openDaemon(wal)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		replays = append(replays, float64(replay.Nanoseconds())/1e6)
		if k < serviceSetups-1 {
			if err := nd.close(); err != nil {
				return result{}, err
			}
			continue
		}
		d = nd
	}
	fmt.Printf("phases: history_s=%.3f restarts_s=%.4f\n", prep.Seconds(), setups)
	d.serve()
	defer d.close()
	cl := newClient(d.http.URL)
	defer cl.hc.CloseIdleConnections()

	r := rng(cfg.seed, 3)
	// The warm-up round fills the executor's snapshot shelf, so every
	// timed round does the same work.
	warm, err := measureRound(serviceRound(d, cl, ref, r, nil))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("warm-up: snapshot_keys=%d shelf_cap=%d\n", warm.c.SnapshotMisses, shelfCap)

	if cfg.trace {
		tr := &svcTrace{spans: &legSpans{}}
		vals := map[string]float64{}
		plain, traced, err := tracedPass(cfg, serviceRound(d, cl, ref, r, nil), serviceRound(d, cl, ref, r, tr), tr.spans, vals)
		if err != nil {
			return result{}, err
		}
		if err := checkShelf(append(plain, traced...)); err != nil {
			return result{}, err
		}
		tr.reduce(vals, traced)
		vals["jobstore.replay_ms"] = median(replays)
		ms, err := layerMetrics(vals)
		if err != nil {
			return result{}, err
		}
		attempted, failed := tally([]round{warm}, plain, traced)
		return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
	}

	rs, timed, err := timedRounds(cfg.seconds, maxTimed(cfg), serviceRound(d, cl, ref, r, nil))
	if err != nil {
		return result{}, err
	}
	if err := checkShelf(rs); err != nil {
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

// checkShelf fails the run when a round after the warm-up missed the
// snapshot shelf. The counts would then depend on how the two clients
// interleave, and the guard would fail rounds for a change in the shelf,
// not in the work.
func checkShelf(rs []round) error {
	for i, r := range rs {
		if r.c.SnapshotMisses != 0 {
			return fmt.Errorf("round %d missed the snapshot shelf %d times after the warm-up round: "+
				"the catalog's warm-snapshot keys no longer fit the pool's shelf (%d keys when this benchmark was written)",
				i, r.c.SnapshotMisses, shelfCap)
		}
	}
	return nil
}

// prepareHistory runs a daemon on a fresh log in dir and journals
// historyJobs submissions: one original of every catalog spec, then
// repeats (hits) cycling through the catalog in seeded order.
func prepareHistory(dir string, seed uint64) error {
	d, _, err := openDaemon(dir)
	if err != nil {
		return err
	}
	d.serve()
	cl := newClient(d.http.URL)
	r := rng(seed, 4)
	for n := 0; n < historyJobs; n++ {
		c := serviceCatalog[n%len(serviceCatalog)]
		if n >= len(serviceCatalog) {
			c = serviceCatalog[r.Intn(len(serviceCatalog))]
		}
		id, _, err := cl.submit(c.spec())
		if err == nil {
			_, err = cl.waitTerminal(id)
		}
		if err != nil {
			d.close()
			return err
		}
	}
	cl.hc.CloseIdleConnections()
	return d.close()
}

// svcTrace collects the traced pass's server-side spans.
type svcTrace struct {
	spans *legSpans
	mu    sync.Mutex
	life  map[string][]float64 // lifecycle stage → ms, misses only
	hits  []float64
}

func (t *svcTrace) addLifecycle(stage string, ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.life == nil {
		t.life = map[string][]float64{}
	}
	t.life[stage] = append(t.life[stage], ms)
}

// reduce fills the server, resultcache and jobstore metrics.
func (t *svcTrace) reduce(vals map[string]float64, rs []round) {
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	vals["server.submit_ms_p50"] = p50(t.life["submit"])
	vals["server.queue_wait_ms_p50"] = p50(t.life["queue-wait"])
	vals["server.run_ms_p50"] = p50(t.life["run"])
	vals["server.render_ms_p50"] = p50(t.life["render"])
	for _, r := range rs {
		for _, o := range r.ops {
			if o.hit {
				t.hits = append(t.hits, o.ms)
			}
		}
	}
	vals["server.hit_p50_ms"] = p50(t.hits)
	vals["server.hit_p90_ms"], _ = percentile(t.hits, 0.9)
	var ratio, coal, recs, bytes []float64
	for _, r := range rs {
		all := float64(r.c.CacheHits + r.c.CacheMisses + r.c.CacheCoalesced)
		ratio = append(ratio, float64(r.c.CacheHits)/all)
		coal = append(coal, float64(r.c.CacheCoalesced))
		recs = append(recs, float64(r.c.WALRecords)/float64(r.c.Jobs))
		bytes = append(bytes, float64(r.walBytes)/float64(r.c.Jobs))
	}
	vals["resultcache.hit_ratio"] = median(ratio)
	vals["resultcache.coalesced"] = median(coal)
	vals["jobstore.records_per_job"] = median(recs)
	vals["jobstore.bytes_per_job"] = median(bytes)
}

// serviceRound purges the result cache, then drives one seeded plan
// through serviceClients closed-loop clients. A repeat is submitted only
// after its original's terminal event, so dispositions (and every count)
// depend on the plan alone, never on timing.
func serviceRound(d *daemon, cl *client, ref *refs, r *rand.Rand, tr *svcTrace) roundFunc {
	return func() (round, error) {
		var rd round
		if _, err := cl.do(http.MethodDelete, "/v1/cache", nil); err != nil {
			return rd, err
		}
		st0, cs0 := d.store.Stats(), d.cache.Stats()
		seq := plan(r)
		done := make([]chan struct{}, len(serviceCatalog))
		for i := range done {
			done[i] = make(chan struct{})
		}

		var mu sync.Mutex
		next := 0
		var wg sync.WaitGroup
		var firstErr error
		for c := 0; c < serviceClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next >= len(seq) || firstErr != nil {
						mu.Unlock()
						return
					}
					it := seq[next]
					next++
					mu.Unlock()
					if it.repeat {
						<-done[it.spec]
					}
					o, res, paper, ok, err := cl.runOne(serviceCatalog[it.spec], it.repeat, ref, tr)
					if !it.repeat {
						close(done[it.spec])
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					rd.attempted++
					rd.ops = append(rd.ops, o)
					if !ok {
						rd.failed++
					}
					if !it.repeat {
						rd.c.Legs += res.Legs
						rd.c.Instructions += res.Instructions
						rd.c.SimCycles += res.SimCycles
						rd.c.ContextSwitches += res.ContextSwitches
						rd.c.L1IAccesses += res.L1IAccesses
						rd.c.L1DAccesses += res.L1DAccesses
						rd.c.LLCAccesses += res.LLCAccesses
						rd.c.SBitDelayedLoads += res.SBitDelayedLoads
						rd.c.PoolHits += res.PoolHits
						rd.c.PoolMisses += res.PoolMisses
						rd.c.SnapshotHits += res.SnapshotHits
						rd.c.SnapshotMisses += res.SnapshotMisses
						rd.paperErrs = append(rd.paperErrs, paper...)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return rd, firstErr
		}
		st1, cs1 := d.store.Stats(), d.cache.Stats()
		rd.c.Jobs = uint64(len(seq))
		rd.c.WALRecords = st1.Records - st0.Records
		rd.walBytes = st1.Bytes - st0.Bytes
		rd.c.CacheHits = cs1.Hits - cs0.Hits
		rd.c.CacheMisses = cs1.Misses - cs0.Misses
		rd.c.CacheCoalesced = cs1.Coalesced - cs0.Coalesced
		return rd, nil
	}
}

// client is one closed-loop HTTP client of the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if method == http.MethodDelete {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if resp.StatusCode >= 300 && method != http.MethodPost {
		return resp, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return resp, nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// submit posts a spec and returns the job id and cache disposition.
func (c *client) submit(spec server.Spec) (id, disp string, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", "", err
	}
	resp, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", "", fmt.Errorf("submit %s: %s: %s", spec.Experiment, resp.Status, b)
	}
	var st server.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return "", "", err
	}
	return st.ID, resp.Header.Get("X-Timecache-Cache"), nil
}

// waitTerminal follows the job's SSE stream to its terminal state event.
func (c *client) waitTerminal(id string) (server.State, error) {
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var st server.Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return "", err
			}
			if st.State.Terminal() {
				return st.State, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("job %s: event stream ended before a terminal state", id)
}

// runOne submits one catalog spec, follows it to its terminal event (the
// timed latency), checks the disposition and the result bytes, and for an
// original returns its resource account and Table II errors.
func (c *client) runOne(cs catalogSpec, repeat bool, ref *refs, tr *svcTrace) (op, server.JobResources, []float64, bool, error) {
	var res server.JobResources
	t0 := time.Now()
	id, disp, err := c.submit(cs.spec())
	if err != nil {
		return op{}, res, nil, false, err
	}
	state, err := c.waitTerminal(id)
	if err != nil {
		return op{}, res, nil, false, err
	}
	o := op{hit: disp == "hit", ms: msSince(t0)}
	ok := state == server.StateDone
	wantDisp := "miss"
	if repeat {
		wantDisp = "hit"
	}
	if disp != wantDisp {
		fmt.Fprintf(os.Stderr, "perfbench: %s (%s) disposition %q, want %q\n", id, cs.ref, disp, wantDisp)
		ok = false
	}
	got, err := c.get("/v1/jobs/" + id + "/result?format=csv")
	if err != nil {
		return o, res, nil, false, err
	}
	want, err := ref.serviceCSV(cs)
	if err != nil {
		return o, res, nil, false, err
	}
	if !checkCSV(id+" "+cs.ref, string(got), want) {
		ok = false
	}
	if repeat {
		return o, res, nil, ok, nil
	}
	b, err := c.get("/v1/jobs/" + id + "/result?format=json")
	if err != nil {
		return o, res, nil, false, err
	}
	var body struct {
		Header    []string            `json:"header"`
		Rows      [][]string          `json:"rows"`
		Resources server.JobResources `json:"resources"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		return o, res, nil, false, err
	}
	res = body.Resources
	var paper []float64
	if cs.job.Experiment == harness.ExpTableII {
		paper = paperErrs(&stats.Table{Header: body.Header, Rows: body.Rows})
	}
	if tr != nil {
		if err := tr.readJobTrace(c, id); err != nil {
			return o, res, paper, false, err
		}
	}
	return o, res, paper, ok, nil
}

// readJobTrace fetches a miss job's Chrome trace and files its lifecycle
// stages and leg spans.
func (t *svcTrace) readJobTrace(c *client, id string) error {
	b, err := c.get("/v1/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	submit := 0.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		ms := ev.Dur / 1000
		switch {
		case ev.Cat == "leg":
			t.spans.Span(ev.Name, ev.Cat, time.Time{}, time.Time{}.Add(time.Duration(ev.Dur*1000)), nil)
		case ev.Name == "validate" || ev.Name == "enqueue":
			submit += ms
		case ev.Name == "queue-wait" || ev.Name == "run" || ev.Name == "render":
			t.addLifecycle(ev.Name, ms)
		}
	}
	t.addLifecycle("submit", submit)
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
