package server

import (
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"timecache/internal/clock"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
	"timecache/internal/stats"
)

// fuzzRecords splits fuzz input into log records: each is
// [kind u8][id length u8][id][payload length u16 BE][payload], and input
// that runs out mid-record ends the log there.
func fuzzRecords(data []byte) []jobstore.Record {
	var recs []jobstore.Record
	for len(data) >= 2 {
		kind, idLen := jobstore.Kind(data[0]), int(data[1])
		data = data[2:]
		if len(data) < idLen+2 {
			break
		}
		id := string(data[:idLen])
		n := int(binary.BigEndian.Uint16(data[idLen:]))
		data = data[idLen+2:]
		if len(data) < n {
			n = len(data)
		}
		recs = append(recs, jobstore.Record{Kind: kind, JobID: id, Payload: data[:n]})
		data = data[n:]
	}
	return recs
}

// appendFuzzRecord is fuzzRecords' inverse, for seeding the corpus.
func appendFuzzRecord(dst []byte, r jobstore.Record) []byte {
	dst = append(dst, byte(r.Kind), byte(len(r.JobID)))
	dst = append(dst, r.JobID...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Payload)))
	return append(dst, r.Payload...)
}

// FuzzReplay: no log contents can panic the daemon. Whatever records the
// store holds, New replays them, the server answers /healthz and the job
// list, and it serves every listed job's status and result without a
// panic. The corpus is seeded with one record of each kind as the server
// writes them, alone and as whole histories.
func FuzzReplay(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spec := smallSpec()
	tab := stats.NewTable("workload", "normalized")
	tab.Add("2Xlbm", 1.0782)
	res := &JobResources{}
	res.Legs, res.Instructions, res.PoolMisses = 2, 40_000, 2
	done := Status{ID: "job-000001", State: StateDone, Experiment: spec.Experiment, Cache: cacheMiss,
		Tenant: "default", Priority: "normal", Done: 1, Total: 1, Created: at, Finished: &at}
	accepted := jobstore.Record{Kind: jobstore.KindAccepted, JobID: done.ID,
		Payload: mustJSON(acceptedRecord{Spec: spec, Created: at, Cache: cacheMiss})}
	state := jobstore.Record{Kind: jobstore.KindState, JobID: done.ID,
		Payload: mustJSON(stateRecord{State: StateRunning, At: at})}
	ev := jobstore.Record{Kind: jobstore.KindEvent, JobID: done.ID,
		Payload: mustJSON(eventRecord{Name: "state", Data: mustJSON(done)})}
	leg := jobstore.Record{Kind: jobstore.KindLeg, JobID: done.ID,
		Payload: mustJSON(legRecord{Leg: 0, Header: tab.Header, Rows: tab.Rows, Resources: *res})}
	result := jobstore.Record{Kind: jobstore.KindResult, JobID: done.ID,
		Payload: mustJSON(resultRecord{
			resultHead: resultHead{State: StateDone, Done: 1, Total: 1, Started: at, Finished: at},
			Header:     tab.Header, Rows: tab.Rows, Res: res,
		})}
	all := []jobstore.Record{accepted, state, ev, leg, result}
	var history, resumed []byte
	for _, r := range all {
		f.Add(appendFuzzRecord(nil, r))
		history = appendFuzzRecord(history, r)
	}
	f.Add(history)
	for _, r := range all[:4] {
		resumed = appendFuzzRecord(resumed, r)
	}
	second := accepted
	second.JobID = "job-000002"
	f.Add(appendFuzzRecord(resumed, second))

	f.Fuzz(func(t *testing.T, data []byte) {
		store := jobstore.NewMem()
		for _, r := range fuzzRecords(data) {
			store.Append(r) // records the codec rejects never reach the log
		}
		s := New(Config{
			Cache: resultcache.New(resultcache.WithMaxEntries(2)),
			Store: store,
			Clock: clock.NewFake(at),
		})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		defer s.Drain(ctx) // hard-stops what replay re-queued: no executor runs it
		get := func(path string) int {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			return rec.Code
		}
		for _, path := range []string{"/healthz", "/v1/jobs"} {
			if code := get(path); code != http.StatusOK {
				t.Fatalf("GET %s after replay: %d", path, code)
			}
		}
		s.mu.Lock()
		ids := append([]string(nil), s.order...)
		s.mu.Unlock()
		for _, id := range ids {
			// Any id may come out of the log; some ("", "..") do not route
			// to the job, so only the absence of a panic is checked here.
			get("/v1/jobs/" + url.PathEscape(id))
			get("/v1/jobs/" + url.PathEscape(id) + "/result")
		}
	})
}
