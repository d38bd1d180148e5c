package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"timecache/internal/stats"
)

// rawRef holds one JSON value undecoded, as the struct decoding replay
// once used read the spec, table and resource account: the last member
// wins, null included.
type rawRef []byte

func (r *rawRef) UnmarshalJSON(b []byte) error {
	*r = append([]byte(nil), b...)
	return nil
}

// unmarshalPresent decodes raw into v unless the member was absent, as the
// struct decoding replay once used did.
func unmarshalPresent(raw []byte, v any) error {
	if len(raw) == 0 {
		return nil
	}
	return json.Unmarshal(raw, v)
}

// replayKeys are the members replay decodes, in any record kind.
var replayKeys = []string{"spec", "created", "cache", "name", "data", "state", "error",
	"attempt", "done", "total", "started", "finished", "header", "rows", "resources"}

// FuzzPayloadReader checks replay's one-pass payload reader against
// encoding/json on any input:
//
//   - walkObject accepts exactly the top-level objects json.Valid accepts;
//   - the members it reports, the last duplicate winning, are what
//     json.Unmarshal into a map[string]json.RawMessage yields;
//   - decodeString, decodeInt and time.Time.UnmarshalJSON store what encoding/json
//     stores in a field of their type, error for error, for every member;
//   - each record kind decodes to what the struct decoding replay used
//     before reads, unless a key matches a member only case-insensitively
//     (encoding/json folds case; replay matches keys exactly).
//
// The corpus is seeded with every record kind as the server writes it.
func FuzzPayloadReader(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tab := stats.NewTable("workload", "normalized")
	tab.Add("2Xlbm", 1.0782)
	res := &JobResources{}
	res.Legs, res.Instructions, res.PoolMisses = 2, 40_000, 2
	done := Status{ID: "job-000001", State: StateDone, Experiment: "table2", Cache: cacheMiss,
		Tenant: "default", Priority: "normal", Done: 1, Total: 1, Created: at, Finished: &at}
	for _, rec := range []any{
		acceptedRecord{Spec: smallSpec(), Created: at, Cache: cacheMiss},
		stateRecord{State: StateRunning, At: at},
		eventRecord{Name: "state", Data: mustJSON(done)},
		eventRecord{Name: "progress", Data: mustJSON(map[string]int{"done": 1, "total": 2})},
		legRecord{Leg: 0, Header: tab.Header, Rows: tab.Rows, Resources: *res},
		resultRecord{
			resultHead: resultHead{State: StateDone, Cache: cacheHit, Attempt: 1, Done: 1, Total: 1, Started: at, Finished: at},
			Header:     tab.Header, Rows: tab.Rows, Res: res,
		},
		resultRecord{resultHead: resultHead{State: StateFailed, Error: `leg 0: unknown pair "x"` + "\n\t<é>", Finished: at}},
	} {
		f.Add(mustJSON(rec))
	}
	for _, s := range []string{
		`{"spec":{"experiment":"table2"},"created":"2026-01-02T03:04:05+01:00","cache":"miss","legs":3}`,
		` {"name":"aé\ud800x","data":null,"name":null} `,
		`{"done":9223372036854775807,"total":-9223372036854775808,"attempt":9223372036854775808}`,
		`{"done":18446744073709551617}`,
		`{"done":1.0,"total":1e2,"attempt":-0}`,
		`{"STATE":"done","State":"failed","state":"queued","state":"done"}`,
		`{"header":["a"],"rows":[["1"]],"resources":{"legs":1},"header":null,"resources":{"instructions":2}}`,
		`{"error":"\xff\xfe","cache":"\u0000"}`,
		`{"a":[1,{"b":-0.5e+3}],"a":true,"":{}}`,
		`{"created":"2026-13-02T03:04:05Z"}`,
		`{"spec":null,"spec":{"pairs":["2Xlbm"]}}`,
		`null`, `[]`, `{"x":1,}`, `{"x":01}`, `{"x":"a` + "\t" + `"}`, `{} {}`,
		strings.Repeat(`{"a":`, 10001) + `1` + strings.Repeat(`}`, 10001),
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got := map[string][]byte{}
		err := walkObject(data, func(key, val []byte) error {
			got[string(key)] = val
			checkDecoders(t, val)
			return nil
		})
		trimmed := bytes.TrimLeft(data, " \t\r\n")
		object := json.Valid(data) && trimmed[0] == '{'
		if (err == nil) != object {
			t.Fatalf("walkObject error %v; json.Valid %v, object %v", err, json.Valid(data), object)
		}
		if !object {
			return
		}
		var want map[string]json.RawMessage
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("walkObject accepted what json.Unmarshal rejects: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("walkObject reported %d distinct keys, encoding/json %d", len(got), len(want))
		}
		for k, v := range want {
			if !bytes.Equal(got[k], v) {
				t.Fatalf("member %q: walkObject %q, encoding/json %q", k, got[k], v)
			}
		}
		for k := range got {
			for _, known := range replayKeys {
				if k != known && strings.EqualFold(k, known) {
					return
				}
			}
		}
		checkRecordDecoders(t, data)
	})
}

// checkDecoders decodes one member with each decoder and with
// encoding/json into a field of the same type, from the same starting
// value, and requires the same outcome.
func checkDecoders(t *testing.T, val []byte) {
	t.Helper()
	gs, ws := "before", "before"
	gerr, werr := decodeString(val, &gs), json.Unmarshal(val, &ws)
	if (gerr == nil) != (werr == nil) || gs != ws {
		t.Fatalf("string %s: decodeString %q (%v), encoding/json %q (%v)", val, gs, gerr, ws, werr)
	}
	gi, wi := 7, 7
	gerr, werr = decodeInt(val, &gi), json.Unmarshal(val, &wi)
	if (gerr == nil) != (werr == nil) || gi != wi {
		t.Fatalf("int %s: decodeInt %d (%v), encoding/json %d (%v)", val, gi, gerr, wi, werr)
	}
	var gt, wt time.Time
	gerr, werr = gt.UnmarshalJSON(val), json.Unmarshal(val, &wt)
	if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(gt, wt) {
		t.Fatalf("time %s: UnmarshalJSON %v (%v), encoding/json %v (%v)", val, gt, gerr, wt, werr)
	}
}

// checkRecordDecoders decodes data as each record kind replay reads and
// requires what the struct decoding replay used before reads from it.
func checkRecordDecoders(t *testing.T, data []byte) {
	t.Helper()
	in := newReplayInterner()

	rs, created, cache, keyMatch, gerr := in.accepted(data)
	var a struct {
		Spec    rawRef    `json:"spec"`
		Created time.Time `json:"created"`
		Cache   string    `json:"cache"`
	}
	var spec Spec
	werr := json.Unmarshal(data, &a)
	if werr == nil {
		werr = unmarshalPresent(a.Spec, &spec)
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("accepted: one-pass error %v, encoding/json error %v", gerr, werr)
	}
	if gerr == nil && (!reflect.DeepEqual(rs.spec, spec) || !reflect.DeepEqual(created, a.Created) || cache != a.Cache) {
		t.Fatalf("accepted: one-pass %+v %v %q, encoding/json %+v %v %q", rs.spec, created, cache, spec, a.Created, a.Cache)
	}
	// The key is compared as raw bytes: a match must be the key encoding/json
	// reads. An escaped spelling of the key reads as a mismatch, which costs
	// a re-run and never a wrong cache entry.
	if keyMatch {
		var k struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(data, &k); err != nil || k.Key != rs.spec.cacheKey() {
			t.Fatalf("accepted: key matched, encoding/json reads %q (%v), want %q", k.Key, err, rs.spec.cacheKey())
		}
	}

	ev, gerr := decodeEvent(data)
	var e eventRecord
	werr = json.Unmarshal(data, &e)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("event: one-pass error %v, encoding/json error %v", gerr, werr)
	}
	if gerr == nil && (ev.name != e.Name || !bytes.Equal(ev.data, e.Data)) {
		t.Fatalf("event: one-pass %q %q, encoding/json %q %q", ev.name, ev.data, e.Name, e.Data)
	}

	rr, gerr := in.result(data)
	var r struct {
		resultHead
		Header rawRef `json:"header"`
		Rows   rawRef `json:"rows"`
		Res    rawRef `json:"resources"`
	}
	var want jobResult
	want.table = &stats.Table{}
	werr = json.Unmarshal(data, &r)
	for _, step := range []func() error{
		func() error { return unmarshalPresent(r.Header, &want.table.Header) },
		func() error { return unmarshalPresent(r.Rows, &want.table.Rows) },
		func() error { return unmarshalPresent(r.Res, &want.res) },
	} {
		if werr == nil {
			werr = step()
		}
	}
	want.resultHead = r.resultHead
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("result: one-pass error %v, encoding/json error %v", gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(*rr, want) {
		t.Fatalf("result: one-pass %+v, encoding/json %+v", *rr, want)
	}
}
