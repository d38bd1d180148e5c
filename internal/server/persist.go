package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"timecache/internal/harness"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
)

// Record payloads journaled to the jobstore. One acceptedRecord opens every
// job's history; eventRecords mirror the SSE stream verbatim (so a restart
// replays it byte-identically); legRecords checkpoint completed legs (so an
// interrupted job resumes at its first unfinished leg); a resultRecord
// closes the history and makes the job replay read-only.
type acceptedRecord struct {
	Spec    Spec      `json:"spec"`
	Created time.Time `json:"created"`
	Cache   string    `json:"cache,omitempty"`
	Legs    int       `json:"legs"`
}

type stateRecord struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
}

type eventRecord struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

type legRecord struct {
	Leg       int          `json:"leg"`
	Header    []string     `json:"header"`
	Rows      [][]string   `json:"rows"`
	Resources JobResources `json:"resources"`
}

type resultRecord struct {
	resultHead
	Header []string      `json:"header,omitempty"`
	Rows   [][]string    `json:"rows,omitempty"`
	Res    *JobResources `json:"resources,omitempty"`
}

// resultHead is a resultRecord's per-job part; the table and resource
// account that follow it repeat across every job with the same result.
type resultHead struct {
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Done     int       `json:"done"`
	Total    int       `json:"total"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// appendRecord journals one record. Persistence failures are logged and
// counted (the store tracks AppendErrors) but never fail the job: the
// service degrades to in-memory behavior rather than refusing work.
func (s *Server) appendRecord(kind jobstore.Kind, jobID string, payload any) {
	if s.cfg.Store == nil {
		return
	}
	err := s.cfg.Store.Append(jobstore.Record{Kind: kind, JobID: jobID, Payload: mustJSON(payload)})
	if err != nil {
		s.log.Error("jobstore append failed", "kind", kind.String(), "job", jobID, "error", err)
	}
}

// attachPersistence wires the job's SSE event log into the durable store and
// journals its acceptance. Called once per job, after admission succeeds and
// before the first event is published.
func (s *Server) attachPersistence(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	legs := len(j.legs)
	created := j.created
	j.mu.Unlock()
	s.appendRecord(jobstore.KindAccepted, j.id, acceptedRecord{
		Spec: j.spec, Created: created, Cache: j.cacheDisp, Legs: legs,
	})
	j.events.persist = func(ev event) {
		s.appendRecord(jobstore.KindEvent, j.id, eventRecord{Name: ev.name, Data: ev.data})
	}
}

func (s *Server) persistState(j *job, st State) {
	s.appendRecord(jobstore.KindState, j.id, stateRecord{State: st, At: s.now()})
}

func (s *Server) persistLeg(j *job, leg int, tab *stats.Table, res JobResources) {
	s.appendRecord(jobstore.KindLeg, j.id, legRecord{
		Leg: leg, Header: tab.Header, Rows: tab.Rows, Resources: res,
	})
}

func (s *Server) persistResult(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	rec := resultRecord{
		resultHead: resultHead{
			State: j.state, Error: j.errMsg, Done: j.done, Total: j.total,
			Started: j.started, Finished: j.finished,
		},
		Res: j.resources,
	}
	if j.state == StateDone && j.table != nil {
		rec.Header, rec.Rows = j.table.Header, j.table.Rows
	}
	j.mu.Unlock()
	s.appendRecord(jobstore.KindResult, j.id, rec)
}

// rawJSON holds one JSON value undecoded. Unlike json.RawMessage it does
// not copy: json.Unmarshal hands UnmarshalJSON a slice of its own input,
// which in replay is a record payload (immutable, see jobstore.Record), so
// the value stays valid for as long as replay holds it.
type rawJSON []byte

func (r *rawJSON) UnmarshalJSON(b []byte) error {
	*r = b
	return nil
}

// unmarshalPresent decodes raw into v unless the field was absent.
func unmarshalPresent(raw rawJSON, v any) error {
	if len(raw) == 0 {
		return nil
	}
	return json.Unmarshal(raw, v)
}

// acceptedReplay and resultReplay read acceptedRecord and resultRecord with
// the spec, table and resource account left undecoded, so replay decodes
// each distinct one once (replayInterner).
type acceptedReplay struct {
	Spec    rawJSON   `json:"spec"`
	Created time.Time `json:"created"`
	Cache   string    `json:"cache,omitempty"`
	Legs    int       `json:"legs"`
}

type resultReplay struct {
	resultHead
	Header rawJSON `json:"header,omitempty"`
	Rows   rawJSON `json:"rows,omitempty"`
	Res    rawJSON `json:"resources,omitempty"`
}

// replayedSpec is one distinct accepted spec and its cache key, computed on
// first use.
type replayedSpec struct {
	spec Spec
	key  string
}

func (rs *replayedSpec) cacheKey() string {
	if rs.key == "" {
		rs.key = rs.spec.cacheKey()
	}
	return rs.key
}

// replayedResult is a decoded resultRecord. Its table and resources are
// shared with every other replayed job whose record carried the same bytes.
type replayedResult struct {
	resultHead
	table *stats.Table
	res   *JobResources
}

// replayedJob accumulates one job's records during log replay.
type replayedJob struct {
	id      string
	spec    *replayedSpec // nil until the accepted record
	created time.Time
	cache   string
	events  []event
	// rawLegs are the job's leg record payloads. Only a job that resumes
	// reads them, so replay decodes them (into legs) for such jobs alone.
	rawLegs [][]byte
	legs    map[int]legRecord
	result  *replayedResult
}

// decodeLegs decodes the leg records of a job that resumes; a later record
// for the same leg wins.
func (rj *replayedJob) decodeLegs() error {
	rj.legs = make(map[int]legRecord, len(rj.rawLegs))
	for _, raw := range rj.rawLegs {
		var l legRecord
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("job %s leg record: %w", rj.id, err)
		}
		rj.legs[l.Leg] = l
	}
	return nil
}

// entryIdentity is what makes two done jobs' cache entries identical: the
// same key, table and metadata.
type entryIdentity struct {
	key         string
	table       *stats.Table
	res         *JobResources
	done, total int
}

// replayInterner shares what replay decodes between jobs. A result cache's
// history is mostly repeats (thousands of jobs over a handful of specs), so
// each distinct spec, table and resource account is decoded once, and each
// distinct cache entry rendered once; the jobs that repeat one share its
// pointer, as live cache hits share an entry's table. Decoded values are
// never written after replay, like every other cache entry.
type replayInterner struct {
	specs   map[string]*replayedSpec
	tables  map[string]*stats.Table
	res     map[string]*JobResources
	entries map[entryIdentity]*resultcache.Entry
	key     []byte // scratch table key: header ‖ 0 ‖ rows
}

func newReplayInterner() *replayInterner {
	return &replayInterner{
		specs:   map[string]*replayedSpec{},
		tables:  map[string]*stats.Table{},
		res:     map[string]*JobResources{},
		entries: map[entryIdentity]*resultcache.Entry{},
	}
}

func (in *replayInterner) spec(raw rawJSON) (*replayedSpec, error) {
	if rs, ok := in.specs[string(raw)]; ok {
		return rs, nil
	}
	rs := &replayedSpec{}
	if err := unmarshalPresent(raw, &rs.spec); err != nil {
		return nil, err
	}
	in.specs[string(raw)] = rs
	return rs, nil
}

// table interns a result table by its header and rows bytes. JSON text
// holds no raw NUL, so the separator keeps the key unambiguous.
func (in *replayInterner) table(header, rows rawJSON) (*stats.Table, error) {
	in.key = append(append(append(in.key[:0], header...), 0), rows...)
	if t, ok := in.tables[string(in.key)]; ok {
		return t, nil
	}
	t := &stats.Table{}
	if err := unmarshalPresent(header, &t.Header); err != nil {
		return nil, err
	}
	if err := unmarshalPresent(rows, &t.Rows); err != nil {
		return nil, err
	}
	in.tables[string(in.key)] = t
	return t, nil
}

func (in *replayInterner) resources(raw rawJSON) (*JobResources, error) {
	if r, ok := in.res[string(raw)]; ok {
		return r, nil
	}
	var r *JobResources
	if err := unmarshalPresent(raw, &r); err != nil {
		return nil, err
	}
	in.res[string(raw)] = r
	return r, nil
}

func (in *replayInterner) result(payload []byte) (*replayedResult, error) {
	var raw resultReplay
	if err := json.Unmarshal(payload, &raw); err != nil {
		return nil, err
	}
	rr := &replayedResult{resultHead: raw.resultHead}
	var err error
	if rr.table, err = in.table(raw.Header, raw.Rows); err != nil {
		return nil, err
	}
	if rr.res, err = in.resources(raw.Res); err != nil {
		return nil, err
	}
	return rr, nil
}

// entry returns the cache entry for a done job, rendering it only for the
// first job with its identity. Seeding that same entry again leaves the
// cache exactly as seeding an equal copy would: same key, size and recency.
func (in *replayInterner) entry(id entryIdentity) *resultcache.Entry {
	if e, ok := in.entries[id]; ok {
		return e
	}
	e := &resultcache.Entry{
		Key:      id.key,
		CSV:      []byte(id.table.CSV()),
		Markdown: []byte(id.table.Markdown()),
		Table:    id.table,
		Meta:     mustJSON(cachedMeta{Resources: id.res, Done: id.done, Total: id.total}),
	}
	in.entries[id] = e
	return e
}

// replay rebuilds the server's job table from the durable log. Runs in New,
// single-threaded, before any executor starts:
//
//   - a job with a resultRecord is reconstructed read-only — terminal state,
//     merged table, resource account, and byte-identical SSE history — and a
//     done job's result re-seeds the result cache (Seed moves no hit/miss
//     counters, so a post-restart cache hit provably re-simulates nothing);
//   - a job without one is re-admitted: completed legs are restored from
//     their legRecords and only the unfinished legs are re-queued. Cache
//     admission re-runs in original submission order, so the first live job
//     of a fingerprint becomes the new singleflight leader — a follower
//     whose leader died mid-crash is re-led — and later ones re-coalesce.
//
// Work is done per distinct value, not per job (replayInterner): a restart
// over thousands of repeats decodes and renders each distinct result once.
func (s *Server) replay() {
	if s.cfg.Store == nil {
		return
	}
	in := newReplayInterner()
	byID := map[string]*replayedJob{}
	var order []string
	err := s.cfg.Store.Replay(func(r jobstore.Record) error {
		rj := byID[r.JobID]
		if rj == nil {
			rj = &replayedJob{id: r.JobID}
			byID[r.JobID] = rj
			order = append(order, r.JobID)
		}
		switch r.Kind {
		case jobstore.KindAccepted:
			var a acceptedReplay
			err := json.Unmarshal(r.Payload, &a)
			if err == nil {
				rj.spec, err = in.spec(a.Spec)
			}
			if err != nil {
				return fmt.Errorf("job %s accepted record: %w", r.JobID, err)
			}
			rj.created, rj.cache = a.Created, a.Cache
		case jobstore.KindEvent:
			var e eventRecord
			if err := json.Unmarshal(r.Payload, &e); err != nil {
				return fmt.Errorf("job %s event record: %w", r.JobID, err)
			}
			rj.events = append(rj.events, event{name: e.Name, data: e.Data})
		case jobstore.KindLeg:
			rj.rawLegs = append(rj.rawLegs, r.Payload)
		case jobstore.KindResult:
			res, err := in.result(r.Payload)
			if err != nil {
				return fmt.Errorf("job %s result record: %w", r.JobID, err)
			}
			rj.result = res
		case jobstore.KindState:
			// Informational; terminal-ness is decided by the resultRecord.
		}
		return nil
	})
	// Leg records matter only to jobs that resume. Decode theirs before any
	// job is rebuilt, so a corrupt one still fails the whole replay.
	for _, id := range order {
		if rj := byID[id]; err == nil && rj.spec != nil && rj.result == nil {
			err = rj.decodeLegs()
		}
	}
	if err != nil {
		// A log this build cannot read is a deployment problem; refuse to
		// guess at state and start empty rather than half-replayed.
		s.log.Error("jobstore replay failed; starting with empty job table", "error", err)
		return
	}

	var maxID uint64
	for _, id := range order {
		rj := byID[id]
		if rj.spec == nil {
			continue // acceptance compacted away or torn off; nothing to rebuild
		}
		// Only "job-<digits>" can collide with an id New issues.
		if digits, ok := strings.CutPrefix(id, "job-"); ok {
			if n, err := strconv.ParseUint(digits, 10, 64); err == nil && n > maxID {
				maxID = n
			}
		}
		if rj.result != nil {
			s.restoreTerminal(rj, in)
		} else {
			s.resumeJob(rj)
		}
		s.metrics.replayedJobs.Add(1)
	}
	// Never reissue an id that exists in the log.
	for s.nextID.Load() < maxID {
		s.nextID.Store(maxID)
	}
	s.log.Info("jobstore replay complete", "jobs", len(order))
}

// restoreTerminal rebuilds a finished job read-only and re-seeds the result
// cache from a done job's table.
func (s *Server) restoreTerminal(rj *replayedJob, in *replayInterner) {
	spec := rj.spec.spec
	j := newJob(rj.id, spec, rj.created)
	j.trace = telemetry.NewSpanRecorder(s.clk.Now)
	// A terminal job logs nothing more (every j.log call sits on a path a
	// finished job never takes), so it gets no job-scoped logger of its own.
	j.log = s.log
	j.cacheDisp = rj.cache
	res := rj.result
	j.state = res.State
	j.errMsg = res.Error
	j.done, j.total = res.Done, res.Total
	j.started, j.finished = res.Started, res.Finished
	j.resources = res.res
	if res.State == StateDone {
		j.table = res.table
	}
	j.events.seed(rj.events)
	j.events.close()
	close(j.doneCh)

	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	if res.State == StateDone && s.cfg.Cache != nil && !spec.NoCache {
		s.cfg.Cache.Seed(in.entry(entryIdentity{
			key: rj.spec.cacheKey(), table: res.table, res: res.res, done: res.Done, total: res.Total,
		}))
	}
}

// resumeJob re-admits an interrupted job: completed legs keep their recorded
// tables and resource deltas, pending legs go back to the scheduler, and the
// deadline restarts from now.
func (s *Server) resumeJob(rj *replayedJob) {
	spec := rj.spec.spec
	j := newJob(rj.id, spec, rj.created)
	j.trace = telemetry.NewSpanRecorder(s.clk.Now)
	j.log = s.log.With("job", rj.id, "experiment", spec.Experiment)
	j.events.seed(rj.events)
	if s.cfg.Store != nil {
		j.events.persist = func(ev event) {
			s.appendRecord(jobstore.KindEvent, j.id, eventRecord{Name: ev.name, Data: ev.data})
		}
	}

	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	s.armJob(j, timeout)

	// Re-run cache admission in submission order, without counting it. An
	// entry seeded by an earlier terminal job finishes this one outright;
	// otherwise the first live job of a fingerprint leads and later ones
	// re-coalesce — which is how a follower orphaned by its leader's death
	// gets re-led.
	if s.cfg.Cache != nil && !spec.NoCache {
		entry, flight, leader := s.cfg.Cache.Readmit(rj.spec.cacheKey())
		switch {
		case entry != nil:
			s.finishReplayedFromCache(j, entry)
			return
		case leader:
			flight.SetLeaderTag(j.id)
			j.flight = flight
			j.cacheDisp = cacheMiss
		default:
			j.flight = flight
			j.cacheDisp = cacheCoalesced
		}
	} else if spec.NoCache && s.cfg.Cache != nil {
		j.cacheDisp = cacheBypass
	}

	if j.cacheDisp == cacheCoalesced {
		s.mu.Lock()
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
		j.flight.OnProgress(func(done, total int) {
			j.mu.Lock()
			if j.state.Terminal() {
				j.mu.Unlock()
				return
			}
			j.done, j.total = done, total
			j.mu.Unlock()
			j.events.publish("progress", mustJSON(map[string]int{"done": done, "total": total}))
		})
		s.followers.Add(1)
		go s.waitCoalesced(j)
		j.log.Info("job replayed as coalesced follower", "leader", j.flight.LeaderTag())
		return
	}

	legs, err := harness.JobLegs(spec.harnessJob())
	if err != nil {
		// The spec was valid when accepted; a failure here means the leg
		// address space changed under the log. Fail the job explicitly.
		s.registerReplayed(j)
		s.failReplayed(j, fmt.Errorf("replay: leg count: %w", err))
		return
	}
	j.initLegs(legs)
	restored := 0
	j.mu.Lock()
	for idx, lr := range rj.legs {
		if idx < 0 || idx >= legs {
			continue
		}
		j.legs[idx].status = legDone
		j.legs[idx].table = &stats.Table{Header: lr.Header, Rows: lr.Rows}
		j.legs[idx].res = lr.Resources
		j.legsDone++
		restored++
	}
	allDone := j.legsDone == legs
	j.mu.Unlock()

	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queued++
	j.hasSlot = true
	s.mu.Unlock()

	j.mu.Lock()
	j.enqueued = s.now()
	j.mu.Unlock()
	j.log.Info("job replayed; resuming", "legs", legs, "legs_restored", restored)
	if allDone {
		// Every leg finished but the terminal record was lost: only the
		// merge remains.
		s.finalize(j, nil)
		return
	}
	s.sched.enqueue(j)
}

// finishReplayedFromCache finalizes a resumed job from a seeded cache entry.
// Unlike finishFromCache it moves no admission metrics — a replayed job is
// not a new submission.
func (s *Server) finishReplayedFromCache(j *job, e *resultcache.Entry) {
	var meta cachedMeta
	if err := json.Unmarshal(e.Meta, &meta); err != nil {
		j.log.Warn("cache entry metadata unreadable; serving result without resources", "error", err)
	}
	now := s.now()
	j.mu.Lock()
	j.state = StateDone
	j.cacheDisp = cacheHit
	j.table = e.Table
	j.resources = meta.Resources
	j.done, j.total = meta.Done, meta.Total
	j.finished = now
	j.mu.Unlock()
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	j.log.Info("replayed job served from result cache", "key", e.Key)
	j.events.publish("progress", mustJSON(map[string]int{"done": meta.Done, "total": meta.Total}))
	s.publishState(j)
	s.persistResult(j)
	j.events.close()
	close(j.doneCh)
}

func (s *Server) registerReplayed(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
}

func (s *Server) failReplayed(j *job, err error) {
	now := s.now()
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.finished = now
	j.mu.Unlock()
	s.persistResult(j)
	s.publishState(j)
	j.events.close()
	close(j.doneCh)
}

// compactStore rewrites the durable log: state and leg records of terminal
// jobs are dropped (their resultRecord carries everything a replay needs;
// eventRecords stay so SSE history still replays), and when Config.StoreRetain
// is set, whole histories of all but the most recent StoreRetain terminal
// jobs are dropped from the log and the in-memory table alike.
func (s *Server) compactStore() (jobstore.Stats, error) {
	if s.cfg.Store == nil {
		return jobstore.Stats{}, fmt.Errorf("job store disabled")
	}
	s.mu.Lock()
	terminal := map[string]bool{}
	var terminalOrder []string
	for _, id := range s.order {
		if s.jobs[id].status().State.Terminal() {
			terminal[id] = true
			terminalOrder = append(terminalOrder, id)
		}
	}
	drop := map[string]bool{}
	if n := s.cfg.StoreRetain; n > 0 && len(terminalOrder) > n {
		for _, id := range terminalOrder[:len(terminalOrder)-n] {
			drop[id] = true
		}
		for _, id := range terminalOrder[:len(terminalOrder)-n] {
			delete(s.jobs, id)
		}
		kept := s.order[:0]
		for _, id := range s.order {
			if !drop[id] {
				kept = append(kept, id)
			}
		}
		s.order = kept
	}
	s.mu.Unlock()

	err := s.cfg.Store.Compact(func(r jobstore.Record) bool {
		if drop[r.JobID] {
			return false
		}
		if !terminal[r.JobID] {
			return true
		}
		switch r.Kind {
		case jobstore.KindAccepted, jobstore.KindEvent, jobstore.KindResult:
			return true
		default:
			return false
		}
	})
	if err != nil {
		return jobstore.Stats{}, err
	}
	st := s.cfg.Store.Stats()
	s.log.Info("jobstore compacted", "records", st.Records, "bytes", st.Bytes,
		"segments", st.Segments, "dropped_jobs", len(drop))
	return st, nil
}
