package cache

import "testing"

// nopDefense is a minimal runtime Defense for seam tests: it counts hook
// invocations and charges a fixed switch cost, touching nothing else.
type nopDefense struct{ checks, switchCycles uint64 }

func (d *nopDefense) Name() string         { return "nop" }
func (d *nopDefense) OnAccess(r *Request)  { d.checks++ }
func (d *nopDefense) Reset()               { *d = nopDefense{} }
func (d *nopDefense) CopyFrom(src Defense) { *d = *src.(*nopDefense) }
func (d *nopDefense) OnSwitch(core, outPID, inPID int, now uint64) uint64 {
	d.switchCycles += 7
	return 7
}

// TestDefenseServeZeroAlloc pins the cost of the defense seam on the
// simulator's hottest path: with the structural kinds (none, timecache) the
// hierarchy carries no runtime defense and Serve must stay at 0 allocs/op
// exactly as before the seam existed, and even with a runtime defense
// installed the per-access hook dispatch itself must not allocate.
func TestDefenseServeZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		mode SecMode
		def  Defense
	}{
		{"none", SecOff, nil},
		{"timecache", SecTimeCache, nil},
		{"runtime-hook", SecOff, &nopDefense{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultHierarchyConfig()
			cfg.Mode = tc.mode
			h := NewHierarchy(cfg)
			h.SetDefense(tc.def)
			r := new(Request)
			r.Ctx, r.Kind = 0, Load
			var i uint64
			allocs := testing.AllocsPerRun(10_000, func() {
				i++
				r.Now, r.Addr = i, (i%4096)*LineSize
				h.Serve(r)
			})
			if allocs != 0 {
				t.Fatalf("Serve allocated %.1f times per access, want 0", allocs)
			}
		})
	}
}

// TestDefenseSeamHooks pins the seam's contract: every served access runs
// the per-access hook, DefenseSwitch forwards the hook's charge (and is free
// when no runtime defense is installed), and Reset keeps the defense
// installed while resetting its state.
func TestDefenseSeamHooks(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if c := h.DefenseSwitch(0, 1, 2, 100); c != 0 {
		t.Fatalf("DefenseSwitch with no defense charged %d cycles", c)
	}

	d := &nopDefense{}
	h.SetDefense(d)
	for i := 0; i < 5; i++ {
		h.Access(uint64(1+i), 0, uint64(i)*LineSize, Load)
	}
	if c := h.DefenseSwitch(0, 1, 2, 100); c != 7 {
		t.Fatalf("DefenseSwitch charge = %d, want the hook's 7", c)
	}
	if d.checks != 5 || d.switchCycles != 7 {
		t.Fatalf("hooks saw %d checks and %d switch cycles, want 5 and 7", d.checks, d.switchCycles)
	}
	h.Reset()
	if h.def != d {
		t.Fatal("Reset uninstalled the defense")
	}
	if d.checks != 0 || d.switchCycles != 0 {
		t.Fatalf("post-Reset counters = %+v, want zeros", *d)
	}
	h.SetDefense(nil)
	if h.def != nil {
		t.Fatal("SetDefense(nil) did not uninstall")
	}
}
