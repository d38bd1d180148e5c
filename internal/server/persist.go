package server

import (
	"bytes"
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
// closes the history and makes the job replay read-only. Each is appended
// before the job applies it (the job's apply* functions), and replay folds
// the same applies over the log; stateRecords are informational.
type acceptedRecord struct {
	Spec    Spec      `json:"spec"`
	Created time.Time `json:"created"`
	Cache   string    `json:"cache,omitempty"`
	// Key is the result-cache key the job was admitted under (see
	// replayedJob.keyMatch); a log written before the field has none.
	Key string `json:"key,omitempty"`
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
// account that follow it repeat across every job with the same result. It
// carries the Status fields the accepted record cannot: the disposition,
// which re-admission may change, and Attempt. A log written before them
// replays with the accepted disposition and zero attempts.
type resultHead struct {
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Cache    string    `json:"cache,omitempty"`
	Attempt  int       `json:"attempt,omitempty"`
	Done     int       `json:"done"`
	Total    int       `json:"total"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// jobResult is a resultRecord in memory: what finish builds and journals,
// and what replay decodes. Replay shares the table and resource account
// with every other job whose record carried the same bytes.
type jobResult struct {
	resultHead
	table *stats.Table
	res   *JobResources
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

// attachPersistence journals the job's acceptance and its SSE events from
// now on. Called once per job, after admission succeeds and before the
// first event is published.
func (s *Server) attachPersistence(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	rec := acceptedRecord{Spec: j.spec, Created: j.created, Cache: j.cacheDisp, Key: j.key}
	j.mu.Unlock()
	s.appendRecord(jobstore.KindAccepted, j.id, rec)
	s.journalEvents(j)
}

// journalEvents makes each event the job publishes append its eventRecord
// first.
func (s *Server) journalEvents(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.events.persist = func(ev event) {
		s.appendRecord(jobstore.KindEvent, j.id, eventRecord{Name: ev.name, Data: ev.data})
	}
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

// replayedJob is one job as replay folds its records.
type replayedJob struct {
	j    *job
	spec *replayedSpec // nil until the accepted record
	// keyMatch: the accepted record journals the key this build computes
	// for the spec. Otherwise the job's journaled work may belong to
	// another key: a done job seeds no cache entry, and an unfinished one
	// re-runs every leg.
	keyMatch bool
	// rawLegs are the job's leg record payloads. Only a job that resumes
	// reads them, so replay decodes them (into legs) for such jobs alone.
	rawLegs [][]byte
	legs    []legRecord
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

func (in *replayInterner) spec(raw []byte) (*replayedSpec, error) {
	if rs, ok := in.specs[string(raw)]; ok {
		return rs, nil
	}
	rs := &replayedSpec{}
	if err := json.Unmarshal(raw, &rs.spec); err != nil {
		return nil, err
	}
	in.specs[string(raw)] = rs
	return rs, nil
}

// table interns a result table by its header and rows bytes. JSON text
// holds no raw NUL, so the separator keeps the key unambiguous.
func (in *replayInterner) table(header, rows []byte) (*stats.Table, error) {
	in.key = append(append(append(in.key[:0], header...), 0), rows...)
	if t, ok := in.tables[string(in.key)]; ok {
		return t, nil
	}
	t := &stats.Table{}
	if err := json.Unmarshal(header, &t.Header); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(rows, &t.Rows); err != nil {
		return nil, err
	}
	in.tables[string(in.key)] = t
	return t, nil
}

func (in *replayInterner) resources(raw []byte) (*JobResources, error) {
	if r, ok := in.res[string(raw)]; ok {
		return r, nil
	}
	var r *JobResources
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	in.res[string(raw)] = r
	return r, nil
}

// Replay decodes each record kind at one site, in one pass over its
// payload (walkObject): the per-job scalars are decoded from their value
// extents, the spec, table and resource account are interned by their
// bytes, and a member the record kind does not name is skipped. A member
// that appears twice takes its last value, as in encoding/json. An absent
// spec, table or resource account reads as null, which decodes to the zero
// value.

// jsonNull is the value of an absent member.
var jsonNull = []byte("null")

// accepted decodes an acceptedRecord, and reports whether its key is the
// spec's key under this build. A key is hex, so its JSON text is the key in
// quotes, and the raw comparison allocates nothing.
func (in *replayInterner) accepted(payload []byte) (rs *replayedSpec, created time.Time, cache string, keyMatch bool, err error) {
	spec := jsonNull
	var key []byte
	err = walkObject(payload, func(k, val []byte) error {
		switch string(k) {
		case "spec":
			spec = val
		case "created":
			return created.UnmarshalJSON(val)
		case "cache":
			return decodeString(val, &cache)
		case "key":
			key = val
		}
		return nil
	})
	if err == nil {
		rs, err = in.spec(spec)
	}
	if err == nil {
		k := rs.cacheKey()
		keyMatch = len(key) == len(k)+2 && key[0] == '"' && string(key[1:len(key)-1]) == k
	}
	return rs, created, cache, keyMatch, err
}

// decodeEvent decodes an eventRecord. Its data is copied, so the job's
// history does not hold the log's buffers.
func decodeEvent(payload []byte) (ev event, err error) {
	var data []byte
	err = walkObject(payload, func(key, val []byte) error {
		switch string(key) {
		case "name":
			return decodeString(val, &ev.name)
		case "data":
			data = val
		}
		return nil
	})
	ev.data = bytes.Clone(data)
	return ev, err
}

// result decodes a resultRecord.
func (in *replayInterner) result(payload []byte) (*jobResult, error) {
	rr := &jobResult{}
	header, rows, res := jsonNull, jsonNull, jsonNull
	err := walkObject(payload, func(key, val []byte) error {
		switch string(key) {
		case "state":
			return decodeString(val, (*string)(&rr.State))
		case "error":
			return decodeString(val, &rr.Error)
		case "cache":
			return decodeString(val, &rr.Cache)
		case "attempt":
			return decodeInt(val, &rr.Attempt)
		case "done":
			return decodeInt(val, &rr.Done)
		case "total":
			return decodeInt(val, &rr.Total)
		case "started":
			return rr.Started.UnmarshalJSON(val)
		case "finished":
			return rr.Finished.UnmarshalJSON(val)
		case "header":
			header = val
		case "rows":
			rows = val
		case "resources":
			res = val
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rr.table, err = in.table(header, rows); err != nil {
		return nil, err
	}
	if rr.res, err = in.resources(res); err != nil {
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
// single-threaded, before any executor starts. It folds each record into
// its job with the apply function the live path used when it appended the
// record, then finishes each job in log order:
//
//   - a job with a resultRecord comes back read-only — terminal state,
//     merged table, resource account, and byte-identical SSE history — and
//     a done job's result re-seeds the result cache (Seed moves no hit/miss
//     counters, so a post-restart cache hit provably re-simulates nothing).
//     The result record is the commit point of the terminal transition; a
//     crash between it and the terminal "state" event loses the event, so
//     replay renders it again from the restored job, as the live path did;
//   - a job without one is re-admitted (resumeJob).
//
// Work is done per distinct value, not per job (replayInterner): a restart
// over thousands of repeats decodes and renders each distinct result once.
func (s *Server) replay() {
	in := newReplayInterner()
	byID := map[string]*replayedJob{}
	var order []*replayedJob
	err := s.cfg.Store.Replay(func(r jobstore.Record) error {
		rj := byID[r.JobID]
		if rj == nil {
			rj = &replayedJob{j: newJob(r.JobID, Spec{}, time.Time{})}
			byID[r.JobID] = rj
			order = append(order, rj)
		}
		switch r.Kind {
		case jobstore.KindAccepted:
			rs, created, cache, keyMatch, err := in.accepted(r.Payload)
			if err != nil {
				return fmt.Errorf("job %s accepted record: %w", r.JobID, err)
			}
			rj.spec, rj.keyMatch = rs, keyMatch
			rj.j.applyAccepted(rs.spec, created, cache)
		case jobstore.KindEvent:
			ev, err := decodeEvent(r.Payload)
			if err != nil {
				return fmt.Errorf("job %s event record: %w", r.JobID, err)
			}
			rj.j.events.apply(ev)
		case jobstore.KindLeg:
			rj.rawLegs = append(rj.rawLegs, r.Payload)
		case jobstore.KindResult:
			res, err := in.result(r.Payload)
			if err != nil {
				return fmt.Errorf("job %s result record: %w", r.JobID, err)
			}
			rj.j.applyResult(res)
		}
		return nil
	})
	// Leg records matter only to jobs that resume under the key they were
	// computed for. Decode theirs before any job is rebuilt, so a corrupt
	// one still fails the whole replay.
	for _, rj := range order {
		if err != nil || rj.spec == nil || rj.j.state.Terminal() || !rj.keyMatch {
			continue
		}
		rj.legs = make([]legRecord, len(rj.rawLegs))
		for i := 0; i < len(rj.rawLegs) && err == nil; i++ {
			if err = json.Unmarshal(rj.rawLegs[i], &rj.legs[i]); err != nil {
				err = fmt.Errorf("job %s leg record: %w", rj.j.id, err)
			}
		}
	}
	if err != nil {
		// A log this build cannot read is a deployment problem; refuse to
		// guess at state and start empty rather than half-replayed.
		s.log.Error("jobstore replay failed; starting with empty job table", "error", err)
		return
	}

	var maxID uint64
	for _, rj := range order {
		j := rj.j
		if rj.spec == nil {
			continue // acceptance compacted away or torn off; nothing to rebuild
		}
		// Only "job-<digits>" can collide with an id New issues.
		if digits, ok := strings.CutPrefix(j.id, "job-"); ok {
			if n, err := strconv.ParseUint(digits, 10, 64); err == nil && n > maxID {
				maxID = n
			}
		}
		j.trace = telemetry.NewSpanRecorder(s.clk.Now)
		s.mu.Lock()
		s.register(j)
		s.mu.Unlock()
		if j.state.Terminal() {
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

// restoreTerminal ends a replayed terminal job's history with its terminal
// state event and re-seeds the result cache from a done job's table. Replay
// never appends for a terminal job: the event it renders when the log lost
// it is rendered again, identically, by every later restart.
func (s *Server) restoreTerminal(rj *replayedJob, in *replayInterner) {
	j := rj.j
	// A terminal job logs nothing more (every j.log call sits on a path a
	// finished job never takes), so it gets no job-scoped logger of its own.
	j.log = s.log
	if !j.events.endsWithState(j.state) {
		j.events.apply(event{name: "state", data: mustJSON(j.status())})
	}
	j.events.close()
	close(j.doneCh)
	if j.state == StateDone && s.cfg.Cache != nil && !j.spec.NoCache && rj.keyMatch {
		s.cfg.Cache.Seed(in.entry(entryIdentity{
			key: rj.spec.cacheKey(), table: j.table, res: j.resources, done: j.done, total: j.total,
		}))
	}
}

// resumeJob re-admits an interrupted job: completed legs keep their recorded
// tables and resource deltas, pending legs go back to the scheduler, and the
// deadline restarts from now. Cache admission re-runs in submission order,
// without counting it (Readmit): an entry seeded by an earlier terminal job
// finishes this one outright; otherwise the first live job of a fingerprint
// leads and later ones re-coalesce — which is how a follower orphaned by its
// leader's death gets re-led.
func (s *Server) resumeJob(rj *replayedJob) {
	j := rj.j
	j.log = s.log.With("job", j.id, "experiment", j.spec.Experiment)
	s.journalEvents(j)
	j.key = rj.spec.cacheKey()
	if entry := s.admit(j, (*resultcache.Cache).Readmit); entry != nil {
		s.finishFromEntry(j, entry, nil)
		j.log.Info("replayed job served from result cache", "key", entry.Key)
		return
	}
	s.armJob(j)
	if j.cacheDisp == cacheCoalesced {
		s.follow(j)
		j.log.Info("job replayed as coalesced follower", "leader", j.flight.LeaderTag())
		return
	}
	legs, err := harness.JobLegs(j.spec.harnessJob())
	if err != nil {
		// The spec was valid when accepted; a failure here means the leg
		// address space changed under the log. Fail the job explicitly.
		s.finish(j, func(r *jobResult) {
			r.State, r.Error = StateFailed, fmt.Sprintf("replay: leg count: %v", err)
		}, nil)
		return
	}
	j.mu.Lock()
	j.legs = make([]legState, legs)
	for _, l := range rj.legs {
		if l.Leg < 0 || l.Leg >= legs || j.legs[l.Leg].status == legDone {
			continue
		}
		j.applyLeg(l.Leg, &stats.Table{Header: l.Header, Rows: l.Rows}, l.Resources)
	}
	restored := j.legsDone
	j.enqueued = s.now()
	j.mu.Unlock()

	s.mu.Lock()
	s.queued++
	j.hasSlot = true
	s.mu.Unlock()
	j.log.Info("job replayed; resuming", "legs", legs, "legs_restored", restored)
	if restored == legs {
		// Every leg finished but the terminal record was lost: only the
		// merge remains.
		s.finalize(j, nil)
		return
	}
	s.sched.enqueue(j)
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
		readOnly := r.Kind == jobstore.KindAccepted || r.Kind == jobstore.KindEvent || r.Kind == jobstore.KindResult
		return !drop[r.JobID] && (!terminal[r.JobID] || readOnly)
	})
	if err != nil {
		return jobstore.Stats{}, err
	}
	st := s.cfg.Store.Stats()
	s.log.Info("jobstore compacted", "records", st.Records, "bytes", st.Bytes,
		"segments", st.Segments, "dropped_jobs", len(drop))
	return st, nil
}
