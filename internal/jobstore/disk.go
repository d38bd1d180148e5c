package jobstore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record the coordinator saw
	// succeed survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS page cache. Survives process
	// SIGKILL (the write(2) completed) but not power loss; appropriate for
	// CI smoke tests and throwaway sweeps.
	SyncNone
)

// DiskOptions configures Open.
type DiskOptions struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 4 MiB). Compaction drops whole dead segments cheaply.
	SegmentBytes int64
}

const defaultSegmentBytes = 4 << 20

// Disk is the production Store: an append-only log sharded into segment
// files wal-000000.log, wal-000001.log, … inside one directory. Only the
// highest-numbered segment is ever written; earlier segments are immutable,
// which makes compaction a rewrite-and-rename with no locking against
// readers of old data.
//
// A torn frame at the tail of the *final* segment (the footprint of a crash
// mid-append) is truncated away on Open. A torn or corrupt frame anywhere
// else is reported as an error: it means lost history, not a clean crash.
type Disk struct {
	dir  string
	opts DiskOptions

	mu      sync.Mutex
	active  *os.File
	actSize int64
	actSeq  int
	closed  bool
	stats   Stats
}

// Open opens (creating if necessary) the log directory and recovers the
// active segment, truncating a torn tail if the last writer crashed
// mid-append.
func Open(dir string, opts DiskOptions) (*Disk, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: create dir: %w", err)
	}
	d := &Disk{dir: dir, opts: opts}
	segs, err := d.segments()
	if err != nil {
		return nil, err
	}
	// Scan every segment to count live records and repair the tail.
	for i, seg := range segs {
		final := i == len(segs)-1
		n := 0
		valid, err := walkSegment(seg, final, "jobstore", func(Record, []byte) error { n++; return nil })
		if err != nil {
			return nil, err
		}
		fi, statErr := os.Stat(seg)
		if statErr != nil {
			return nil, statErr
		}
		if final && valid < fi.Size() {
			if err := os.Truncate(seg, valid); err != nil {
				return nil, fmt.Errorf("jobstore: truncate torn tail of %s: %w", seg, err)
			}
		}
		d.stats.Records += uint64(n)
		d.stats.Bytes += uint64(valid)
	}
	d.stats.Segments = uint64(len(segs))
	if len(segs) == 0 {
		d.actSeq = 0
		d.stats.Segments = 1
	} else {
		d.actSeq = seqOf(segs[len(segs)-1])
	}
	f, err := os.OpenFile(d.segPath(d.actSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d.active, d.actSize = f, fi.Size()
	return d, nil
}

func (d *Disk) segPath(seq int) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%06d.log", seq))
}

// segments lists segment files in sequence order.
func (d *Disk) segments() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, filepath.Join(d.dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func seqOf(path string) int {
	var seq int
	fmt.Sscanf(filepath.Base(path), "wal-%06d.log", &seq)
	return seq
}

// walkSegment reads one segment and calls fn with each decoded record and
// its raw frame, returning the byte offset just past the last valid frame.
// In the final segment a truncated tail ends the walk cleanly; anywhere
// else, and for any CRC or decode failure, it is an error naming the
// segment and offset after prefix. Errors from fn are returned unchanged.
func walkSegment(path string, final bool, prefix string, fn func(r Record, frame []byte) error) (validBytes int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := 0
	for off < len(buf) {
		body, n, err := ReadFrame(buf[off:])
		if err != nil {
			if IsTruncated(err) && final {
				break
			}
			return 0, fmt.Errorf("%s: segment %s offset %d: %w", prefix, path, off, err)
		}
		rec, err := Decode(body)
		if err != nil {
			return 0, fmt.Errorf("%s: segment %s offset %d: %w", prefix, path, off, err)
		}
		if err := fn(rec, buf[off:off+n]); err != nil {
			return 0, err
		}
		off += n
	}
	return int64(off), nil
}

// walkLog walks every segment in order; only the last may have a torn tail.
func walkLog(segs []string, prefix string, fn func(r Record, frame []byte) error) error {
	for i, seg := range segs {
		if _, err := walkSegment(seg, i == len(segs)-1, prefix, fn); err != nil {
			return err
		}
	}
	return nil
}

func (d *Disk) Append(r Record) error {
	body, err := r.Encode()
	if err != nil {
		return err
	}
	frame := AppendFrame(nil, body)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		d.stats.AppendErrors++
		return ErrClosed
	}
	if d.actSize >= d.opts.SegmentBytes {
		if err := d.rollLocked(); err != nil {
			d.stats.AppendErrors++
			return err
		}
	}
	if _, err := d.active.Write(frame); err != nil {
		d.stats.AppendErrors++
		return fmt.Errorf("jobstore: append: %w", err)
	}
	if d.opts.Sync == SyncAlways {
		if err := d.active.Sync(); err != nil {
			d.stats.AppendErrors++
			return fmt.Errorf("jobstore: fsync: %w", err)
		}
	}
	d.actSize += int64(len(frame))
	d.stats.Records++
	d.stats.Bytes += uint64(len(frame))
	return nil
}

// rollLocked closes the active segment and starts the next one. Caller
// holds d.mu.
func (d *Disk) rollLocked() error {
	if err := d.active.Sync(); err != nil {
		return err
	}
	if err := d.active.Close(); err != nil {
		return err
	}
	d.actSeq++
	f, err := os.OpenFile(d.segPath(d.actSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.active, d.actSize = f, 0
	d.stats.Segments++
	return nil
}

func (d *Disk) Replay(fn func(r Record) error) error {
	d.mu.Lock()
	segs, err := d.segments()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return walkLog(segs, "jobstore", func(r Record, _ []byte) error { return fn(r) })
}

// Compact rewrites the log keeping only records keep approves. The surviving
// records are written to a fresh segment sequence; old segments are removed
// only after the rewrite is durable, so a crash mid-compaction leaves either
// the old log or the new one, never neither. Appends are blocked for the
// duration (compaction is rare and the log is small after dropping dead
// jobs).
func (d *Disk) Compact(keep func(r Record) bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.active.Sync(); err != nil {
		return err
	}

	segs, err := d.segments()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, "compact-*.tmp")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath) // no-op after the rename below

	// Kept frames are buffered, so the rewrite makes one write(2) per
	// buffer rather than per record.
	w := bufio.NewWriterSize(tmp, 256<<10)
	var kept uint64
	var keptBytes int64
	err = walkLog(segs, "jobstore: compact", func(r Record, frame []byte) error {
		if !keep(r) {
			return nil
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
		kept++
		keptBytes += int64(len(frame))
		return nil
	})
	if err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}

	// Swap: rename the compacted log over segment 0, delete the rest, and
	// restart the sequence. rename(2) is atomic within the directory.
	d.active.Close()
	if err := os.Rename(tmpPath, d.segPath(0)); err != nil {
		return err
	}
	for _, seg := range segs {
		if seqOf(seg) != 0 {
			os.Remove(seg)
		}
	}
	d.actSeq = 0
	f, err := os.OpenFile(d.segPath(0), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.active, d.actSize = f, keptBytes
	d.stats.Records = kept
	d.stats.Bytes = uint64(keptBytes)
	d.stats.Segments = 1
	d.stats.Compactions++
	return nil
}

func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.active.Sync(); err != nil {
		d.active.Close()
		return err
	}
	return d.active.Close()
}
