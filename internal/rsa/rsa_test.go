package rsa

import (
	"testing"
	"testing/quick"

	"timecache/internal/sim"
)

func TestGenerateKeyDeterministic(t *testing.T) {
	a := GenerateKey(64, 7)
	b := GenerateKey(64, 7)
	c := GenerateKey(64, 8)
	if a.String() != b.String() {
		t.Fatal("same seed must give same key")
	}
	if a.String() == c.String() {
		t.Fatal("different seeds should give different keys")
	}
	if !a[0] {
		t.Fatal("leading bit must be 1")
	}
	if len(a) != 64 {
		t.Fatalf("key length %d", len(a))
	}
}

func TestKeyMatch(t *testing.T) {
	k := Key{true, false, true, true}
	if got := k.Match(Key{true, false, true, true}); got != 1 {
		t.Fatalf("exact match = %v", got)
	}
	if got := k.Match(Key{false, true, false, false}); got != 0 {
		t.Fatalf("no match = %v", got)
	}
	if got := k.Match(Key{true, false}); got != 0.5 {
		t.Fatalf("prefix match = %v", got)
	}
}

func TestKeyUint64AndString(t *testing.T) {
	k := Key{true, false, true, true}
	if k.Uint64() != 0b1011 {
		t.Fatalf("uint64 = %b", k.Uint64())
	}
	if k.String() != "1011" {
		t.Fatalf("string = %s", k.String())
	}
}

func TestMulmodMatchesBigArithmetic(t *testing.T) {
	f := func(a, b uint64, mRaw uint32) bool {
		m := uint64(mRaw) + 2
		got := mulmod(a, b, m)
		// Reference via 128-bit-safe reduction: (a%m)*(b%m) fits in 128;
		// emulate with per-bit accumulation independent of the tested code.
		var want uint64
		x, y := a%m, b%m
		for y > 0 {
			if y&1 == 1 {
				want = (want + x) % m
			}
			x = (x + x) % m
			y >>= 1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModExpKnownValues(t *testing.T) {
	// 2^10 mod 1000 = 24
	key := Key{true, false, true, false} // 10 in binary
	if got := ModExp(2, key, 1000); got != 24 {
		t.Fatalf("2^10 mod 1000 = %d, want 24", got)
	}
	// Fermat: a^(p-1) mod p = 1 for prime p, a not divisible by p.
	p := uint64(0xFFFFFFFB)
	exp := make(Key, 0, 64)
	for i := 31; i >= 0; i-- {
		exp = append(exp, (p-1)>>uint(i)&1 == 1)
	}
	if got := ModExp(3, exp, p); got != 1 {
		t.Fatalf("fermat check failed: %d", got)
	}
}

// scriptEnv records the victim's library accesses.
type scriptEnv struct {
	now     uint64
	fetches []uint64
	yields  int
	exited  bool
}

func (e *scriptEnv) Fetch(v uint64)           { e.fetches = append(e.fetches, v); e.now += 2 }
func (e *scriptEnv) Load(v uint64) uint64     { e.now += 2; return 0 }
func (e *scriptEnv) Store(v uint64, x uint64) { e.now += 2 }
func (e *scriptEnv) Flush(v uint64)           { e.now += 40 }
func (e *scriptEnv) Now() uint64              { return e.now }
func (e *scriptEnv) Tick(n uint64)            { e.now += n }
func (e *scriptEnv) Instret(n uint64)         {}
func (e *scriptEnv) PID() int                 { return 1 }
func (e *scriptEnv) Syscall(num, arg uint64) uint64 {
	switch num {
	case sim.SysYield:
		e.yields++
	case sim.SysExit:
		e.exited = true
	}
	return 0
}

func TestVictimAccessSequenceFollowsKey(t *testing.T) {
	lib := DefaultLibrary(0x1000)
	key := Key{true, false, true} // srmr sr srmr
	v := NewVictim(lib, key, 5, 1000003)
	e := &scriptEnv{}
	for v.Step(e) {
	}
	want := []uint64{
		lib.SquareAddr(), lib.ReduceAddr(), lib.MultiplyAddr(), lib.ReduceAddr(),
		lib.SquareAddr(), lib.ReduceAddr(),
		lib.SquareAddr(), lib.ReduceAddr(), lib.MultiplyAddr(), lib.ReduceAddr(),
	}
	if len(e.fetches) != len(want) {
		t.Fatalf("fetches %d, want %d", len(e.fetches), len(want))
	}
	for i := range want {
		if e.fetches[i] != want[i] {
			t.Fatalf("fetch %d = %#x, want %#x", i, e.fetches[i], want[i])
		}
	}
	if e.yields != len(key) {
		t.Fatalf("yields = %d, want one per bit", e.yields)
	}
	if !e.exited || !v.Finished {
		t.Fatal("victim must exit when done")
	}
	if v.Result != ModExp(5, key, 1000003) {
		t.Fatalf("victim result %d != reference %d", v.Result, ModExp(5, key, 1000003))
	}
}

func TestVictimArithmeticProperty(t *testing.T) {
	f := func(seed uint64, base uint64, mRaw uint32) bool {
		m := uint64(mRaw) + 3
		key := GenerateKey(16, seed)
		v := NewVictim(DefaultLibrary(0x1000), key, base, m)
		e := &scriptEnv{}
		for v.Step(e) {
		}
		return v.Result == ModExp(base, key, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLibraryLayoutDistinctLines(t *testing.T) {
	lib := DefaultLibrary(0x4000)
	a, b, c := lib.SquareAddr()>>6, lib.MultiplyAddr()>>6, lib.ReduceAddr()>>6
	if a == b || b == c || a == c {
		t.Fatal("function entries must live on distinct cache lines")
	}
	if lib.Size() < 3*64 {
		t.Fatal("library image too small")
	}
}
