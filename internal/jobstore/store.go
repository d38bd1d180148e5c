package jobstore

import (
	"errors"
	"sync"
)

var (
	// errTruncated marks a frame cut off mid-write — what a crash leaves at
	// the tail of the active segment. Tolerated there, fatal elsewhere.
	errTruncated = errors.New("jobstore: truncated frame")
	// errCorrupt marks a CRC or length-field mismatch: real damage, never
	// tolerated.
	errCorrupt = errors.New("jobstore: corrupt frame")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("jobstore: store closed")
)

// IsTruncated reports whether err is the tolerable torn-tail condition (as
// opposed to hard corruption).
func IsTruncated(err error) bool { return errors.Is(err, errTruncated) }

// Stats counts what the store has absorbed. Gauges for the current shape,
// counters for lifetime totals; the server mirrors them into the
// timecache_jobstore_* metric families.
type Stats struct {
	Records      uint64 // live records (post-compaction)
	Bytes        uint64 // live log bytes, framing included
	Segments     uint64 // on-disk segment files (1 for Mem)
	Compactions  uint64 // completed Compact calls
	AppendErrors uint64 // appends that failed (I/O error or frozen store)
}

// Store is the write-ahead log the coordinator journals through.
//
// Append must be safe for concurrent use and durable per the store's sync
// policy when it returns; the store keeps its own copy of the payload.
// Replay streams every live record in append order and is only called
// before the coordinator starts executing (single goroutine, no concurrent
// Appends). Compact rewrites the log keeping only records the caller's keep
// func approves; it may run concurrently with Appends. The records Replay
// and Compact hand out alias the store's memory: their payloads stay valid
// after the callback returns but must not be modified.
type Store interface {
	Append(r Record) error
	Replay(fn func(r Record) error) error
	Compact(keep func(r Record) bool) error
	Stats() Stats
	Close() error
}

// Mem is an in-memory Store for tests. Freeze makes every subsequent Append
// vanish without error — the coordinator believes it journaled, the log
// doesn't have it — which is exactly the window a SIGKILL opens between
// "decided" and "durable". Crash tests freeze the store, hard-stop the
// server, then hand the same Mem to a fresh server to replay.
type Mem struct {
	mu     sync.Mutex
	recs   []Record
	frozen bool
	closed bool
	stats  Stats
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Freeze drops all future appends on the floor, simulating a crash at this
// instant: everything already appended replays, nothing after does.
func (m *Mem) Freeze() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frozen = true
}

func (m *Mem) Append(r Record) error {
	// Round-trip through the codec so Mem exercises the same encode path
	// (and the same field bounds) as the disk store. Encode copies the
	// caller's payload into a fresh body, so the stored record, which
	// aliases that body, shares no bytes with the caller.
	body, err := r.Encode()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.stats.AppendErrors++
		return ErrClosed
	}
	if m.frozen {
		return nil
	}
	dec, err := decode(body, nil)
	if err != nil {
		m.stats.AppendErrors++
		return err
	}
	m.recs = append(m.recs, dec)
	m.stats.Records++
	m.stats.Bytes += uint64(frameLen + len(body))
	return nil
}

func (m *Mem) Replay(fn func(r Record) error) error {
	m.mu.Lock()
	recs := make([]Record, len(m.recs))
	copy(recs, m.recs)
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (m *Mem) Compact(keep func(r Record) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	kept := m.recs[:0]
	var bytes uint64
	for _, r := range m.recs {
		if keep(r) {
			kept = append(kept, r)
			body, _ := r.Encode()
			bytes += uint64(frameLen + len(body))
		}
	}
	m.recs = kept
	m.stats.Records = uint64(len(kept))
	m.stats.Bytes = bytes
	m.stats.Compactions++
	return nil
}

func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Segments = 1
	return s
}

func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
