// Package mem models physical memory: a frame allocator with reference
// counts (supporting copy-on-write sharing and page deduplication) over
// byte-addressable contents, plus the DRAM latency model that terminates the
// cache hierarchy.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// PageSize is the physical frame and virtual page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Frame identifies a physical frame. Frame numbers are dense and start at 0.
type Frame uint64

// Addr converts a frame number to the physical address of its first byte.
func (f Frame) Addr() uint64 { return uint64(f) << PageShift }

// FrameOf returns the frame containing physical address pa.
func FrameOf(pa uint64) Frame { return Frame(pa >> PageShift) }

// Physical is a physical memory: a set of allocated frames with contents and
// reference counts. The zero value is not usable; use NewPhysical.
type Physical struct {
	frames []*frameInfo
	// free holds frames released by Unref, reused last-in first-out.
	free []Frame
	// next is the reuse cursor: every frame at index next or above is free
	// and not on the free list (Reset rewinds it to 0 instead of rebuilding
	// the free list, so a Reset allocates nothing).
	next     int
	capacity int

	// DRAMLatency is the cycles charged for a request serviced by memory.
	DRAMLatency uint64
}

// frameInfo is one frame's contents and bookkeeping. A nil data buffer is
// a demand-zero frame: it reads as zeros and gets a buffer on its first
// store, so a mapped region the run never writes costs no host memory. A
// shared frame's data buffer is aliased by a machine snapshot (or by the snapshot's source) and
// must never be written in place: every mutation goes through writable,
// which swaps in a private buffer on first write (host-level copy-on-write).
// This sharing is invisible to the simulation — frame numbers, refcounts,
// and timing are untouched; only the Go-level backing buffers are shared.
// The simulated COW (minor faults on AddressSpace.Translate) is a separate,
// timing-visible mechanism and does not interact with this flag.
type frameInfo struct {
	data   []byte
	refs   int
	shared bool
}

// NewPhysical creates a physical memory with capacity frames and the given
// DRAM access latency in cycles.
func NewPhysical(capacityFrames int, dramLatency uint64) *Physical {
	if capacityFrames <= 0 {
		panic("mem: capacity must be positive")
	}
	return &Physical{capacity: capacityFrames, DRAMLatency: dramLatency}
}

// Alloc allocates a zeroed frame with refcount 1: a frame freed by Unref
// first, then the frames a Reset freed in ascending order, then a new one.
// A new frame is demand-zero. A reused frame keeps a private buffer, which
// is cleared; a buffer still aliased by a snapshot is dropped instead, since
// zeroing it in place would corrupt the frozen copy.
func (p *Physical) Alloc() (Frame, error) {
	var f Frame
	switch {
	case len(p.free) > 0:
		f = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	case p.next < len(p.frames):
		f = Frame(p.next)
		p.next++
	case len(p.frames) >= p.capacity:
		return 0, fmt.Errorf("mem: out of physical memory (%d frames)", p.capacity)
	default:
		p.frames = append(p.frames, &frameInfo{refs: 1})
		p.next = len(p.frames)
		return Frame(len(p.frames) - 1), nil
	}
	fi := p.frames[f]
	fi.refs = 1
	if fi.shared {
		fi.data, fi.shared = nil, false
	} else {
		clear(fi.data)
	}
	return f, nil
}

// Reset frees every frame without releasing backing storage, restoring the
// allocation order of a fresh Physical: successive Allocs take frames 0, 1,
// 2, ... exactly as first-time allocation numbered them. Frame contents are
// zeroed lazily by Alloc.
func (p *Physical) Reset() {
	for _, fi := range p.frames {
		fi.refs = 0
	}
	p.free = p.free[:0]
	p.next = 0
}

// Ref increments the reference count of f (e.g. when a second address space
// maps the frame, or when COW duplicates a mapping).
func (p *Physical) Ref(f Frame) {
	p.info(f).refs++
}

// Unref decrements the reference count of f, freeing it when it reaches zero.
func (p *Physical) Unref(f Frame) {
	fi := p.info(f)
	if fi.refs <= 0 {
		panic(fmt.Sprintf("mem: unref of free frame %d", f))
	}
	fi.refs--
	if fi.refs == 0 {
		p.free = append(p.free, f)
	}
}

// Refs returns the current reference count of f.
func (p *Physical) Refs(f Frame) int { return p.info(f).refs }

func (p *Physical) info(f Frame) *frameInfo {
	if int(f) >= len(p.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range (%d allocated)", f, len(p.frames)))
	}
	fi := p.frames[f]
	if fi.refs <= 0 {
		panic(fmt.Sprintf("mem: access to free frame %d", f))
	}
	return fi
}

// writable is the host-COW write barrier: it returns f's frameInfo with a
// buffer that is private to this Physical, allocating a demand-zero frame's
// buffer and breaking buffer sharing with any snapshot on the first store.
func (p *Physical) writable(f Frame) *frameInfo {
	fi := p.info(f)
	if fi.data == nil || fi.shared {
		data := make([]byte, PageSize)
		copy(data, fi.data)
		fi.data = data
		fi.shared = false
	}
	return fi
}

// zeroPage is what a demand-zero frame reads as.
var zeroPage [PageSize]byte

// contents returns f's bytes for reading: its buffer, or the zero page for
// a demand-zero frame. Callers must not write through it.
func (p *Physical) contents(f Frame) []byte {
	if d := p.info(f).data; d != nil {
		return d
	}
	return zeroPage[:]
}

// Page returns the contents of frame f. The returned slice aliases the
// frame; callers must not hold it across a free. Callers write through the
// returned slice (the kernel loader does), so Page counts as a store and
// breaks host-COW sharing.
func (p *Physical) Page(f Frame) []byte { return p.writable(f).data }

// ReadU64 reads the 8-byte little-endian word at physical address pa.
// Accesses must not cross a frame boundary.
func (p *Physical) ReadU64(pa uint64) uint64 {
	off := pa & (PageSize - 1)
	if off > PageSize-8 {
		panic(fmt.Sprintf("mem: unaligned cross-page read at %#x", pa))
	}
	return binary.LittleEndian.Uint64(p.contents(FrameOf(pa))[off:])
}

// WriteU64 writes the 8-byte little-endian word v at physical address pa.
func (p *Physical) WriteU64(pa uint64, v uint64) {
	off := pa & (PageSize - 1)
	if off > PageSize-8 {
		panic(fmt.Sprintf("mem: unaligned cross-page write at %#x", pa))
	}
	binary.LittleEndian.PutUint64(p.writable(FrameOf(pa)).data[off:], v)
}

// CopyFrame duplicates src into a fresh frame (the COW break path) and
// returns the copy, which has refcount 1.
func (p *Physical) CopyFrame(src Frame) (Frame, error) {
	dst, err := p.Alloc()
	if err != nil {
		return 0, err
	}
	if data := p.info(src).data; data != nil {
		copy(p.writable(dst).data, data)
	}
	return dst, nil
}

// HashFrame returns a content hash of frame f, used by the KSM-style
// deduplication scanner to find identical pages.
func (p *Physical) HashFrame(f Frame) uint64 {
	h := fnv.New64a()
	h.Write(p.contents(f))
	return h.Sum64()
}

// SameContents reports whether two frames hold identical bytes. Dedup must
// confirm equality after a hash match before merging.
func (p *Physical) SameContents(a, b Frame) bool {
	return bytes.Equal(p.contents(a), p.contents(b))
}

// Seal marks every frame's buffer as shared, so the next store to any frame
// copies the buffer first. A machine snapshot calls this on the live
// machine immediately before aliasing its buffers into the frozen copy;
// Seal itself is not concurrency-safe and must not race with forks.
func (p *Physical) Seal() {
	for _, fi := range p.frames {
		fi.shared = true
	}
}

// CopyFrom makes p an exact logical copy of src without copying any page
// contents: every frame of p aliases src's buffer and is marked shared, so
// the first store to a frame copies just that page (near-O(1) fork). src is
// never mutated — src's own frames must already be sealed (snapshots are) —
// so any number of CopyFrom calls may read one src concurrently.
func (p *Physical) CopyFrom(src *Physical) {
	if len(src.frames) > p.capacity {
		panic(fmt.Sprintf("mem: CopyFrom source has %d frames, capacity %d", len(src.frames), p.capacity))
	}
	for len(p.frames) < len(src.frames) {
		p.frames = append(p.frames, &frameInfo{})
	}
	p.frames = p.frames[:len(src.frames)]
	for i, sf := range src.frames {
		df := p.frames[i]
		df.data = sf.data
		df.refs = sf.refs
		df.shared = true
	}
	p.free = append(p.free[:0], src.free...)
	p.next = src.next
}
