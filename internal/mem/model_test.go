package mem

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"
)

// eagerMem is the reference model for Physical: every frame owns a full
// buffer from its first allocation, Reset rebuilds the free list
// descending, and forks deep-copy. Frame numbering, refcounts and contents
// must match Physical after every operation.
type eagerMem struct {
	pages    [][]byte
	refs     []int
	free     []Frame
	capacity int
}

func (m *eagerMem) alloc() (Frame, bool) {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		m.refs[f] = 1
		clear(m.pages[f])
		return f, true
	}
	if len(m.pages) >= m.capacity {
		return 0, false
	}
	m.pages = append(m.pages, make([]byte, PageSize))
	m.refs = append(m.refs, 1)
	return Frame(len(m.pages) - 1), true
}

func (m *eagerMem) unref(f Frame) {
	if m.refs[f]--; m.refs[f] == 0 {
		m.free = append(m.free, f)
	}
}

func (m *eagerMem) reset() {
	m.free = m.free[:0]
	for i := len(m.pages) - 1; i >= 0; i-- {
		m.refs[i] = 0
		m.free = append(m.free, Frame(i))
	}
}

func (m *eagerMem) clone() *eagerMem {
	c := &eagerMem{capacity: m.capacity, refs: append([]int(nil), m.refs...), free: append([]Frame(nil), m.free...)}
	for _, p := range m.pages {
		c.pages = append(c.pages, append([]byte(nil), p...))
	}
	return c
}

// live returns the model's allocated frames in ascending order.
func (m *eagerMem) live() []Frame {
	var out []Frame
	for f, r := range m.refs {
		if r > 0 {
			out = append(out, Frame(f))
		}
	}
	return out
}

// TestPhysicalMatchesEagerModel drives demand-zero Physicals through seeded
// random Alloc, Write, Read, Page, CopyFrame, Seal, CopyFrom, Reset, Unref,
// HashFrame and SameContents calls, on a source memory and forks of it, and
// checks every result and every live frame against the eager model.
func TestPhysicalMatchesEagerModel(t *testing.T) {
	const capacity, ops = 12, 4000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		phys := []*Physical{NewPhysical(capacity, 200)}
		models := []*eagerMem{{capacity: capacity}}
		for op := 0; op < ops; op++ {
			i := rng.Intn(len(phys))
			p, m := phys[i], models[i]
			live := m.live()
			pick := func() Frame { return live[rng.Intn(len(live))] }
			switch k := rng.Intn(12); {
			case k < 2 || len(live) == 0:
				f, err := p.Alloc()
				mf, ok := m.alloc()
				if (err == nil) != ok || (ok && f != mf) {
					t.Fatalf("seed %d op %d: Alloc = %d, %v; model %d, %v", seed, op, f, err, mf, ok)
				}
			case k == 2:
				f := pick()
				pa := f.Addr() + uint64(rng.Intn(PageSize/8))*8
				v := rng.Uint64()
				p.WriteU64(pa, v)
				for b := 0; b < 8; b++ {
					m.pages[f][int(pa&(PageSize-1))+b] = byte(v >> (8 * b))
				}
			case k == 3:
				f := pick()
				pa := f.Addr() + uint64(rng.Intn(PageSize/8))*8
				off := pa & (PageSize - 1)
				var want uint64
				for b := 7; b >= 0; b-- {
					want = want<<8 | uint64(m.pages[f][int(off)+b])
				}
				if got := p.ReadU64(pa); got != want {
					t.Fatalf("seed %d op %d: ReadU64(%#x) = %#x, want %#x", seed, op, pa, got, want)
				}
			case k == 4:
				f := pick()
				off := rng.Intn(PageSize)
				v := byte(rng.Intn(256))
				p.Page(f)[off] = v
				m.pages[f][off] = v
			case k == 5:
				src := pick()
				f, err := p.CopyFrame(src)
				mf, ok := m.alloc()
				if (err == nil) != ok || (ok && f != mf) {
					t.Fatalf("seed %d op %d: CopyFrame = %d, %v; model %d, %v", seed, op, f, err, mf, ok)
				}
				if ok {
					copy(m.pages[mf], m.pages[src])
				}
			case k == 6:
				// Fork: seal this memory and copy it into a new one (up to
				// three memories), or into an existing other memory.
				p.Seal()
				j := rng.Intn(3)
				if j >= len(phys) {
					phys = append(phys, NewPhysical(capacity, 200))
					models = append(models, nil)
					j = len(phys) - 1
				}
				if j != i {
					phys[j].CopyFrom(p)
					models[j] = m.clone()
				}
			case k == 7:
				p.Reset()
				m.reset()
			case k == 8:
				f := pick()
				p.Unref(f)
				m.unref(f)
			case k == 9:
				f := pick()
				p.Ref(f)
				m.refs[f]++
			case k == 10:
				f := pick()
				h := fnv.New64a()
				h.Write(m.pages[f])
				if got := p.HashFrame(f); got != h.Sum64() {
					t.Fatalf("seed %d op %d: HashFrame(%d) = %#x, want %#x", seed, op, f, got, h.Sum64())
				}
			default:
				a, b := pick(), pick()
				if got, want := p.SameContents(a, b), bytes.Equal(m.pages[a], m.pages[b]); got != want {
					t.Fatalf("seed %d op %d: SameContents(%d, %d) = %v, want %v", seed, op, a, b, got, want)
				}
			}
			for n, p := range phys {
				checkAgainstModel(t, p, models[n], seed, op)
			}
		}
	}
}

// checkAgainstModel compares refcounts of every frame and the contents of
// every live frame.
func checkAgainstModel(t *testing.T, p *Physical, m *eagerMem, seed int64, op int) {
	t.Helper()
	if len(p.frames) != len(m.pages) {
		t.Fatalf("seed %d op %d: %d frames, model %d", seed, op, len(p.frames), len(m.pages))
	}
	for f, r := range m.refs {
		if got := p.frames[f].refs; got != r {
			t.Fatalf("seed %d op %d: frame %d refs %d, model %d", seed, op, f, got, r)
		}
		if r > 0 && !bytes.Equal(p.contents(Frame(f)), m.pages[f]) {
			t.Fatalf("seed %d op %d: frame %d contents differ from the model", seed, op, f)
		}
	}
}

// TestDemandZeroFramesHoldNoBuffer: frames that are only read never get a
// buffer, and the first store to one allocates exactly that frame's.
func TestDemandZeroFramesHoldNoBuffer(t *testing.T) {
	p := NewPhysical(64, 200)
	var fs []Frame
	for i := 0; i < 64; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if p.ReadU64(f.Addr()+8) != 0 {
			t.Fatalf("frame %d does not read as zero", f)
		}
		fs = append(fs, f)
	}
	if h, z := p.HashFrame(fs[0]), p.HashFrame(fs[1]); h != z || !p.SameContents(fs[0], fs[1]) {
		t.Fatal("two demand-zero frames hash or compare differently")
	}
	p.WriteU64(fs[3].Addr(), 1)
	for _, f := range fs {
		if has := p.frames[f].data != nil; has != (f == fs[3]) {
			t.Fatalf("frame %d has a buffer: %v", f, has)
		}
	}
}
