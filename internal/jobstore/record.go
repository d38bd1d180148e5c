// Package jobstore is the job service's write-ahead, replayable persistence
// layer: an append-only log of versioned records describing everything that
// happened to every job — acceptance, state transitions, SSE events, per-leg
// results, and the terminal result. A coordinator that replays the log in
// order reconstructs its full pre-crash state: queued jobs re-queue,
// interrupted jobs resume at the first unfinished leg, and finished jobs
// (results, resource accounts, and byte-exact SSE histories) come back
// read-only.
//
// Records are opaque to this package beyond their envelope (version, kind,
// job id): the payload is whatever the coordinator serialized, so the store
// never chases the service's schema. On disk each record is CRC-framed
// inside size-bounded segments (disk.go); the in-memory Mem store backs
// sleep-free crash tests (store.go).
package jobstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// RecordVersion tags every encoded record. Bump it when the envelope or any
// payload schema changes incompatibly; decode rejects versions from the
// future so an old binary never misreads a new log.
const RecordVersion = 1

// Kind discriminates the record types the coordinator appends.
type Kind uint8

const (
	// KindAccepted: a job passed admission. Payload: the spec and admission
	// metadata. Always the job's first record.
	KindAccepted Kind = 1
	// KindState: a lifecycle transition (queued → running → terminal).
	KindState Kind = 2
	// KindEvent: one SSE frame, stored verbatim so GET /v1/jobs/{id}/events
	// replays byte-identically after a restart.
	KindEvent Kind = 3
	// KindLeg: one completed leg's rendered slice and resource delta. An
	// interrupted job resumes at its first leg with no KindLeg record.
	KindLeg Kind = 4
	// KindResult: the terminal record — final state, merged table, resource
	// account. A job with a KindResult replays read-only.
	KindResult Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindAccepted:
		return "accepted"
	case KindState:
		return "state"
	case KindEvent:
		return "event"
	case KindLeg:
		return "leg"
	case KindResult:
		return "result"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one log entry: the envelope the store understands plus an opaque
// payload owned by the writer.
type Record struct {
	// Version is RecordVersion for records this build writes; decode carries
	// the on-log version through so a reader can branch on old schemas.
	Version uint8
	// Kind discriminates the payload schema.
	Kind Kind
	// JobID scopes the record to one job ("job-000042").
	JobID string
	// Payload is the writer-owned body (the service uses JSON). A record
	// handed out by decode, Replay or Compact aliases the buffer it was read
	// from, so its payload must not be modified.
	Payload []byte
}

// Record payload layout (everything inside the CRC frame):
//
//	[version u8][kind u8][idlen u16 BE][job id bytes][payload bytes]
//
// The frame around it (framing helpers in disk.go, shared by the fuzzer):
//
//	[len u32 BE][crc32(body) u32 BE][body]
const recordHeaderLen = 1 + 1 + 2

// maxIDLen bounds the job id so a corrupt length field cannot demand a
// multi-gigabyte allocation before the CRC is even checked.
const maxIDLen = 1 << 10

// Encode serializes the record body (unframed). Returns an error rather
// than panicking on impossible field values so fuzzed round-trips stay
// total.
func (r Record) Encode() ([]byte, error) {
	if r.Version == 0 {
		r.Version = RecordVersion
	}
	if r.Kind < KindAccepted || r.Kind > KindResult {
		return nil, fmt.Errorf("jobstore: unknown record kind %d", uint8(r.Kind))
	}
	if len(r.JobID) > maxIDLen {
		return nil, fmt.Errorf("jobstore: job id length %d exceeds %d", len(r.JobID), maxIDLen)
	}
	buf := make([]byte, 0, recordHeaderLen+len(r.JobID)+len(r.Payload))
	buf = append(buf, r.Version, byte(r.Kind))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.JobID)))
	buf = append(buf, r.JobID...)
	buf = append(buf, r.Payload...)
	return buf, nil
}

// idInterner hands out one string per distinct job id over a walk of the
// log, so the records of one job share their id instead of each allocating
// a copy.
type idInterner map[string]string

func (ids idInterner) intern(b []byte) string {
	if s, ok := ids[string(b)]; ok {
		return s
	}
	s := string(b)
	ids[s] = s
	return s
}

// decode parses an unframed record body, taking the job id from ids when
// it is non-nil. It never panics: every length is bounds-checked before
// use, and unknown versions/kinds are errors, not crashes. The payload
// aliases body rather than copying it (its capacity ends at the body's
// end, so an append cannot write past it): replay and compaction read each
// payload once, and a copy per record would allocate the whole log again
// on every pass.
func decode(body []byte, ids idInterner) (Record, error) {
	if len(body) < recordHeaderLen {
		return Record{}, fmt.Errorf("jobstore: record body %d bytes, want >= %d", len(body), recordHeaderLen)
	}
	r := Record{Version: body[0], Kind: Kind(body[1])}
	if r.Version == 0 || r.Version > RecordVersion {
		return Record{}, fmt.Errorf("jobstore: unsupported record version %d (this build writes %d)", r.Version, RecordVersion)
	}
	if r.Kind < KindAccepted || r.Kind > KindResult {
		return Record{}, fmt.Errorf("jobstore: unknown record kind %d", body[1])
	}
	idLen := int(binary.BigEndian.Uint16(body[2:4]))
	if idLen > maxIDLen {
		return Record{}, fmt.Errorf("jobstore: job id length %d exceeds %d", idLen, maxIDLen)
	}
	if recordHeaderLen+idLen > len(body) {
		return Record{}, fmt.Errorf("jobstore: job id length %d overruns %d-byte body", idLen, len(body))
	}
	if id := body[recordHeaderLen : recordHeaderLen+idLen]; ids != nil {
		r.JobID = ids.intern(id)
	} else {
		r.JobID = string(id)
	}
	if rest := body[recordHeaderLen+idLen:]; len(rest) > 0 {
		r.Payload = rest[:len(rest):len(rest)]
	}
	return r, nil
}

// frameLen is the per-record framing overhead: u32 body length + u32 CRC.
const frameLen = 8

// maxRecordLen bounds one framed record. Large enough for any rendered
// result table, small enough that a corrupt length field fails fast.
const maxRecordLen = 16 << 20

// crcTable is Castagnoli — hardware-accelerated on both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the CRC frame for body to dst.
func AppendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

// ReadFrame parses one frame from the head of buf, returning the body and
// the number of bytes consumed.
//
//   - A short buffer (header or body cut off) returns errTruncated — the
//     torn-tail case a crashed writer leaves, which replay tolerates on the
//     final segment only.
//   - A CRC or length-field mismatch returns a hard corruption error.
func ReadFrame(buf []byte) (body []byte, n int, err error) {
	if len(buf) < frameLen {
		return nil, 0, errTruncated
	}
	bl := binary.BigEndian.Uint32(buf)
	if bl > maxRecordLen {
		return nil, 0, fmt.Errorf("jobstore: framed record claims %d bytes (max %d): %w", bl, maxRecordLen, errCorrupt)
	}
	if len(buf) < frameLen+int(bl) {
		return nil, 0, errTruncated
	}
	body = buf[frameLen : frameLen+int(bl)]
	if got, want := crc32.Checksum(body, crcTable), binary.BigEndian.Uint32(buf[4:]); got != want {
		return nil, 0, fmt.Errorf("jobstore: frame CRC %08x != stored %08x: %w", got, want, errCorrupt)
	}
	return body, frameLen + int(bl), nil
}
