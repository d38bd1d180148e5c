package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocZeroedAndRefcounted(t *testing.T) {
	p := NewPhysical(4, 200)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if p.Refs(f) != 1 {
		t.Fatalf("fresh frame refs = %d, want 1", p.Refs(f))
	}
	for i, b := range p.Page(f) {
		if b != 0 {
			t.Fatalf("fresh frame byte %d = %d, want 0", i, b)
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	p := NewPhysical(2, 200)
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err == nil {
		t.Fatal("third alloc in a 2-frame memory must fail")
	}
}

func TestFreeListReuseZeroes(t *testing.T) {
	p := NewPhysical(1, 200)
	f, _ := p.Alloc()
	p.StoreByte(f.Addr()+7, 0xAB)
	p.Unref(f)
	g, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatalf("expected frame reuse, got %d want %d", g, f)
	}
	if p.LoadByte(g.Addr()+7) != 0 {
		t.Fatal("reused frame must be zeroed")
	}
}

func TestRefUnref(t *testing.T) {
	p := NewPhysical(2, 200)
	f, _ := p.Alloc()
	p.Ref(f)
	p.Unref(f)
	if p.Refs(f) != 1 {
		t.Fatalf("refs = %d, want 1", p.Refs(f))
	}
	p.Unref(f)
	defer func() {
		if recover() == nil {
			t.Error("access to freed frame must panic")
		}
	}()
	p.LoadByte(f.Addr())
}

func TestReadWriteU64RoundTrip(t *testing.T) {
	p := NewPhysical(2, 200)
	f, _ := p.Alloc()
	base := f.Addr()
	f2 := func(off16 uint16, v uint64) bool {
		off := uint64(off16) % (PageSize - 8)
		off &^= 7
		p.WriteU64(base+off, v)
		return p.ReadU64(base+off) == v
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossPageAccessPanics(t *testing.T) {
	p := NewPhysical(2, 200)
	f, _ := p.Alloc()
	defer func() {
		if recover() == nil {
			t.Error("cross-page word access must panic")
		}
	}()
	p.ReadU64(f.Addr() + PageSize - 4)
}

func TestCopyFrameAndSameContents(t *testing.T) {
	p := NewPhysical(4, 200)
	a, _ := p.Alloc()
	for i := 0; i < PageSize; i += 8 {
		p.WriteU64(a.Addr()+uint64(i), uint64(i)*31)
	}
	b, err := p.CopyFrame(a)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SameContents(a, b) {
		t.Fatal("copied frame must match source")
	}
	if p.HashFrame(a) != p.HashFrame(b) {
		t.Fatal("hashes of identical frames must match")
	}
	p.StoreByte(b.Addr(), 1)
	if p.SameContents(a, b) {
		t.Fatal("frames differ after write")
	}
	if p.HashFrame(a) == p.HashFrame(b) {
		t.Fatal("hashes should differ after write (fnv collision would be astonishing here)")
	}
}

func TestFrameAddrRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		fr := Frame(n)
		return FrameOf(fr.Addr()) == fr && FrameOf(fr.Addr()+PageSize-1) == fr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocatedCount(t *testing.T) {
	p := NewPhysical(8, 200)
	var fs []Frame
	for i := 0; i < 5; i++ {
		f, _ := p.Alloc()
		fs = append(fs, f)
	}
	if p.allocated() != 5 {
		t.Fatalf("allocated = %d, want 5", p.allocated())
	}
	p.Unref(fs[2])
	if p.allocated() != 4 {
		t.Fatalf("allocated = %d, want 4", p.allocated())
	}
}

// TestSealCopyFromIsolation pins the host-level COW contract: after Seal +
// CopyFrom the two memories alias the same frame buffers, and the first
// store on either side copies its frame privately — writes are never
// visible across the aliasing, in either direction.
func TestSealCopyFromIsolation(t *testing.T) {
	src := NewPhysical(8, 200)
	var fs []Frame
	for i := 0; i < 4; i++ {
		f, _ := src.Alloc()
		src.WriteU64(f.Addr(), uint64(0xA0+i))
		fs = append(fs, f)
	}
	src.Seal()
	dst := NewPhysical(8, 200)
	dst.CopyFrom(src)

	if dst.allocated() != src.allocated() {
		t.Fatalf("dst allocated = %d, want %d", dst.allocated(), src.allocated())
	}
	for i, f := range fs {
		if got := dst.ReadU64(f.Addr()); got != uint64(0xA0+i) {
			t.Fatalf("dst frame %d reads %#x, want %#x", f, got, 0xA0+i)
		}
	}

	// A write in the fork must not reach the source...
	dst.WriteU64(fs[0].Addr(), 0xDEAD)
	if got := src.ReadU64(fs[0].Addr()); got != 0xA0 {
		t.Fatalf("fork write leaked into source: src reads %#x", got)
	}
	// ...and a write in the (sealed, still running) source must not reach
	// the fork.
	src.StoreByte(fs[1].Addr(), 0xFF)
	if got := dst.ReadU64(fs[1].Addr()); got != 0xA1 {
		t.Fatalf("source write leaked into fork: dst reads %#x", got)
	}
	// Untouched frames still agree.
	if src.ReadU64(fs[2].Addr()) != dst.ReadU64(fs[2].Addr()) {
		t.Fatal("untouched frame diverged")
	}
}

// TestCopyFromSiblingIsolation: two forks of one sealed source are isolated
// from each other, not just from the source.
func TestCopyFromSiblingIsolation(t *testing.T) {
	src := NewPhysical(4, 200)
	f, _ := src.Alloc()
	src.WriteU64(f.Addr(), 42)
	src.Seal()

	a := NewPhysical(4, 200)
	a.CopyFrom(src)
	b := NewPhysical(4, 200)
	b.CopyFrom(src)

	a.WriteU64(f.Addr(), 1)
	b.WriteU64(f.Addr(), 2)
	if got := a.ReadU64(f.Addr()); got != 1 {
		t.Fatalf("fork a reads %d, want 1", got)
	}
	if got := b.ReadU64(f.Addr()); got != 2 {
		t.Fatalf("fork b reads %d, want 2", got)
	}
	if got := src.ReadU64(f.Addr()); got != 42 {
		t.Fatalf("source reads %d, want 42", got)
	}
}

// TestAllocReuseOfSharedFrame: a freed frame whose buffer is aliased by a
// snapshot must come back from Alloc with a fresh zeroed buffer — zeroing in
// place would corrupt the snapshot's view.
func TestAllocReuseOfSharedFrame(t *testing.T) {
	src := NewPhysical(1, 200)
	f, _ := src.Alloc()
	src.WriteU64(f.Addr(), 7)
	src.Seal()
	snap := NewPhysical(1, 200)
	snap.CopyFrom(src)

	src.Unref(f) // frees the frame; its buffer is still aliased by snap
	g, err := src.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatalf("free-list reuse returned frame %d, want %d", g, f)
	}
	for i, b := range src.Page(g) {
		if b != 0 {
			t.Fatalf("reused frame byte %d = %d, want 0", i, b)
		}
	}
	if got := snap.ReadU64(f.Addr()); got != 7 {
		t.Fatalf("snapshot view corrupted by frame reuse: reads %d, want 7", got)
	}
}

// TestCopyFromRewindsGrowth: restoring a small snapshot into a memory that
// had grown past it must truncate the frame table so allocation order
// replays identically.
func TestCopyFromRewindsGrowth(t *testing.T) {
	src := NewPhysical(8, 200)
	a, _ := src.Alloc()
	src.WriteU64(a.Addr(), 11)
	src.Seal()

	dst := NewPhysical(8, 200)
	for i := 0; i < 5; i++ {
		dst.Alloc()
	}
	dst.CopyFrom(src)
	if dst.allocated() != 1 {
		t.Fatalf("dst allocated = %d, want 1", dst.allocated())
	}
	b, _ := dst.Alloc()
	c, _ := src.Alloc()
	if b != c {
		t.Fatalf("post-restore alloc order diverged: dst got %d, src got %d", b, c)
	}
}

// TestAllocatedO1AcrossResetAndUnref: the live-frame counter must track
// Alloc/Unref/Reset exactly (it replaced an O(frames) scan).
func TestAllocatedO1AcrossResetAndUnref(t *testing.T) {
	p := NewPhysical(16, 200)
	var fs []Frame
	for i := 0; i < 10; i++ {
		f, _ := p.Alloc()
		fs = append(fs, f)
	}
	p.Ref(fs[0]) // second ref must not change the live count on first Unref
	p.Unref(fs[0])
	if p.allocated() != 10 {
		t.Fatalf("allocated = %d, want 10 (frame still referenced)", p.allocated())
	}
	p.Unref(fs[0])
	p.Unref(fs[1])
	if p.allocated() != 8 {
		t.Fatalf("allocated = %d, want 8", p.allocated())
	}
	p.Reset()
	if p.allocated() != 0 {
		t.Fatalf("allocated after Reset = %d, want 0", p.allocated())
	}
	f, _ := p.Alloc()
	if p.allocated() != 1 || f != 0 {
		t.Fatalf("first post-Reset alloc: frame %d, allocated %d", f, p.allocated())
	}
}
