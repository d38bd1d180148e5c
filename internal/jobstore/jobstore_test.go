package jobstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func rec(kind Kind, id, payload string) Record {
	return Record{Kind: kind, JobID: id, Payload: []byte(payload)}
}

// collect replays the store into a slice.
func collect(t *testing.T, s Store) []Record {
	t.Helper()
	var out []Record
	if err := s.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range []Record{
		rec(KindAccepted, "job-000001", `{"experiment":"table2"}`),
		rec(KindState, "job-000001", `{"state":"running"}`),
		rec(KindEvent, "job-000001", ""),
		rec(KindLeg, "j", strings.Repeat("x", 10_000)),
		rec(KindResult, "", `{}`),
	} {
		body, err := r.Encode()
		if err != nil {
			t.Fatalf("encode %v: %v", r.Kind, err)
		}
		got, err := Decode(body)
		if err != nil {
			t.Fatalf("decode %v: %v", r.Kind, err)
		}
		want := r
		want.Version = RecordVersion
		if len(want.Payload) == 0 {
			want.Payload = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %v: got %+v want %+v", r.Kind, got, want)
		}
	}
}

func TestRecordRejects(t *testing.T) {
	if _, err := (Record{JobID: "x"}).Encode(); err == nil {
		t.Error("encode with no kind succeeded")
	}
	if _, err := (Record{Kind: KindState, JobID: strings.Repeat("a", maxIDLen+1)}).Encode(); err == nil {
		t.Error("encode with oversized id succeeded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("decode of empty body succeeded")
	}
	if _, err := Decode([]byte{99, byte(KindState), 0, 0}); err == nil {
		t.Error("decode of future version succeeded")
	}
	if _, err := Decode([]byte{RecordVersion, 77, 0, 0}); err == nil {
		t.Error("decode of unknown kind succeeded")
	}
	// id length field overrunning the body must error, not slice out of range.
	if _, err := Decode([]byte{RecordVersion, byte(KindState), 0xff, 0xff}); err == nil {
		t.Error("decode with overrunning id length succeeded")
	}
}

func TestFrameCRC(t *testing.T) {
	body, _ := rec(KindState, "job-1", "payload").Encode()
	framed := AppendFrame(nil, body)

	got, n, err := ReadFrame(framed)
	if err != nil || n != len(framed) {
		t.Fatalf("ReadFrame: n=%d err=%v", n, err)
	}
	if string(got) != string(body) {
		t.Fatal("frame body mismatch")
	}
	// Flip one payload byte: CRC must catch it.
	bad := append([]byte(nil), framed...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := ReadFrame(bad); err == nil || IsTruncated(err) {
		t.Errorf("corrupt frame: got %v, want hard corruption error", err)
	}
	// Every strict prefix is truncated, never corrupt, never a panic.
	for cut := 0; cut < len(framed); cut++ {
		if _, _, err := ReadFrame(framed[:cut]); !IsTruncated(err) {
			t.Fatalf("prefix %d: got %v, want truncated", cut, err)
		}
	}
	// Absurd length field is corruption, not an allocation attempt.
	huge := binary.BigEndian.AppendUint32(nil, maxRecordLen+1)
	huge = append(huge, 0, 0, 0, 0)
	if _, _, err := ReadFrame(huge); err == nil || IsTruncated(err) {
		t.Errorf("oversized frame: got %v, want hard corruption error", err)
	}
}

func TestMemFreeze(t *testing.T) {
	m := NewMem()
	for i := 0; i < 3; i++ {
		if err := m.Append(rec(KindState, fmt.Sprintf("job-%d", i), "a")); err != nil {
			t.Fatal(err)
		}
	}
	m.Freeze()
	if err := m.Append(rec(KindState, "job-lost", "b")); err != nil {
		t.Fatalf("append after freeze errored: %v", err)
	}
	got := collect(t, m)
	if len(got) != 3 {
		t.Fatalf("replay after freeze: %d records, want 3", len(got))
	}
	for _, r := range got {
		if r.JobID == "job-lost" {
			t.Fatal("frozen append survived")
		}
	}
}

// TestPayloadOwnership: Decode aliases the body it parses instead of
// copying it, with the payload's capacity ending at the body's end, while
// Mem keeps its own copy of every appended payload, so a writer reusing
// its buffer cannot change what the log replays.
func TestPayloadOwnership(t *testing.T) {
	body, err := rec(KindEvent, "job-000001", "abc").Encode()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] = 'X'
	if string(r.Payload) != "abX" {
		t.Errorf("decoded payload %q does not alias its body", r.Payload)
	}
	if cap(r.Payload) != len(r.Payload) {
		t.Errorf("payload capacity %d reaches past its %d bytes", cap(r.Payload), len(r.Payload))
	}

	m := NewMem()
	payload := []byte("abc")
	if err := m.Append(Record{Kind: KindEvent, JobID: "job-000001", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X'
	if got := collect(t, m); string(got[0].Payload) != "abc" {
		t.Errorf("Mem replayed %q after the writer reused its buffer, want %q", got[0].Payload, "abc")
	}
}

func TestMemCompact(t *testing.T) {
	m := NewMem()
	for i := 0; i < 10; i++ {
		kind := KindEvent
		if i%2 == 0 {
			kind = KindLeg
		}
		if err := m.Append(rec(kind, "job-1", "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(func(r Record) bool { return r.Kind == KindEvent }); err != nil {
		t.Fatal(err)
	}
	got := collect(t, m)
	if len(got) != 5 {
		t.Fatalf("compacted to %d records, want 5", len(got))
	}
	st := m.Stats()
	if st.Records != 5 || st.Compactions != 1 {
		t.Errorf("stats after compact: %+v", st)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 100; i++ {
		r := rec(KindEvent, fmt.Sprintf("job-%06d", i%7), fmt.Sprintf(`{"seq":%d}`, i))
		r.Version = RecordVersion
		want = append(want, r)
		if err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := collect(t, d2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: %d records vs %d", len(got), len(want))
	}
	st := d2.Stats()
	if st.Records != 100 {
		t.Errorf("Records = %d, want 100", st.Records)
	}
}

func TestDiskSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{Sync: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Append(rec(KindEvent, "job-1", strings.Repeat("p", 64))); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2 after rolling", st.Segments)
	}
	d.Close()

	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := len(collect(t, d2)); got != 50 {
		t.Fatalf("replay across segments: %d records, want 50", got)
	}
}

func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Append(rec(KindState, "job-1", "complete")); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	// Chop mid-frame: the last record loses its final byte.
	seg := filepath.Join(dir, "wal-000000.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if got := len(collect(t, d2)); got != 4 {
		t.Fatalf("replay after torn tail: %d records, want 4", got)
	}
	// The tail was repaired, so appends continue cleanly.
	if err := d2.Append(rec(KindState, "job-2", "after-crash")); err != nil {
		t.Fatal(err)
	}
	d2.Close()
	d3, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := len(collect(t, d3)); got != 5 {
		t.Fatalf("replay after repair+append: %d records, want 5", got)
	}
}

func TestDiskCorruptMiddleRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Append(rec(KindState, "job-1", "complete")); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	// Flip a byte in the middle of the segment: hard corruption, Open fails.
	seg := filepath.Join(dir, "wal-000000.log")
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DiskOptions{}); err == nil {
		t.Fatal("open of mid-corrupt log succeeded")
	}
}

func TestDiskCompact(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{Sync: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := "job-dead"
		if i%4 == 0 {
			id = "job-live"
		}
		if err := d.Append(rec(KindEvent, id, strings.Repeat("e", 48))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(func(r Record) bool { return r.JobID == "job-live" }); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Records != 10 || st.Segments != 1 || st.Compactions != 1 {
		t.Fatalf("stats after compact: %+v", st)
	}
	// Appends keep working post-compaction and everything survives reopen.
	if err := d.Append(rec(KindState, "job-live", "done")); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := collect(t, d2)
	if len(got) != 11 {
		t.Fatalf("replay after compact: %d records, want 11", len(got))
	}
	for _, r := range got {
		if r.JobID != "job-live" {
			t.Fatalf("dead record survived compaction: %+v", r)
		}
	}
}

func TestDiskAppendAfterClose(t *testing.T) {
	d, err := Open(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if err := d.Append(rec(KindState, "job-1", "x")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if d.Stats().AppendErrors != 1 {
		t.Errorf("AppendErrors = %d, want 1", d.Stats().AppendErrors)
	}
}

// TestDiskCorruptNonFinalSegment damages an earlier segment after Open
// has accepted the log: a flipped byte (CRC failure) or a torn frame there
// is lost history, not a crash footprint, so Replay and Compact must both
// fail, and the failed Compact must leave the old segments in place and
// byte for byte unchanged, readable again once the damage is undone.
func TestDiskCorruptNonFinalSegment(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"crc", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }},
		{"torn", func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, DiskOptions{Sync: SyncNone, SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for i := 0; i < 20; i++ {
				if err := d.Append(rec(KindEvent, "job-1", strings.Repeat("p", 64))); err != nil {
					t.Fatal(err)
				}
			}
			if d.Stats().Segments < 2 {
				t.Fatalf("Segments = %d, want >= 2", d.Stats().Segments)
			}
			seg := filepath.Join(dir, "wal-000000.log")
			orig, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.damage(append([]byte(nil), orig...))
			if err := os.WriteFile(seg, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			snapshot := func() map[string]string {
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				out := map[string]string{}
				for _, e := range ents {
					b, err := os.ReadFile(filepath.Join(dir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					out[e.Name()] = string(b)
				}
				return out
			}
			before := snapshot()

			if err := d.Replay(func(Record) error { return nil }); err == nil {
				t.Error("Replay over a damaged non-final segment succeeded")
			} else if !strings.Contains(err.Error(), seg) {
				t.Errorf("Replay error %q does not name the segment", err)
			}
			if err := d.Compact(func(Record) bool { return true }); err == nil {
				t.Fatal("Compact over a damaged non-final segment succeeded")
			} else if !strings.Contains(err.Error(), "jobstore: compact: segment "+seg) {
				t.Errorf("Compact error %q does not name the segment", err)
			}
			if after := snapshot(); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed Compact changed the log directory: %d files before, %d after", len(before), len(after))
			}
			if d.Stats().Compactions != 0 {
				t.Errorf("Compactions = %d after a failed Compact", d.Stats().Compactions)
			}

			if err := os.WriteFile(seg, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := len(collect(t, d)); got != 20 {
				t.Fatalf("replay after undoing the damage: %d records, want 20", got)
			}
		})
	}
}
