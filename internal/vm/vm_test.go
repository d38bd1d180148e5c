package vm

import (
	"strings"
	"testing"

	"timecache/internal/asm"
	"timecache/internal/isa"
	"timecache/internal/sim"
)

// fakeEnv is a flat-memory, unit-latency environment for VM semantics tests.
type fakeEnv struct {
	mem      map[uint64]uint64
	now      uint64
	flushes  []uint64
	syscalls []uint64
	exited   bool
	instrs   uint64
}

func newFakeEnv(p *isa.Program) *fakeEnv {
	e := &fakeEnv{mem: map[uint64]uint64{}}
	for i := 0; i+8 <= len(p.Data); i += 8 {
		e.mem[p.DataBase+uint64(i)] = le64(p.Data[i:])
	}
	for i := 0; i+8 <= len(p.Shared); i += 8 {
		e.mem[p.SharedBase+uint64(i)] = le64(p.Shared[i:])
	}
	return e
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func (e *fakeEnv) Fetch(uint64)     { e.now++ }
func (e *fakeEnv) Tick(n uint64)    { e.now += n }
func (e *fakeEnv) Instret(n uint64) { e.instrs += n }
func (e *fakeEnv) Now() uint64      { return e.now }
func (e *fakeEnv) PID() int         { return 1 }
func (e *fakeEnv) Load(a uint64) uint64 {
	e.now += 2
	return e.mem[a&^7]
}
func (e *fakeEnv) Store(a uint64, v uint64) {
	e.now += 2
	e.mem[a&^7] = v
}
func (e *fakeEnv) Flush(a uint64) { e.flushes = append(e.flushes, a); e.now += 40 }
func (e *fakeEnv) Syscall(num, arg uint64) uint64 {
	e.syscalls = append(e.syscalls, num)
	if num == sim.SysExit {
		e.exited = true
	}
	if num == sim.SysGetPID {
		return 1
	}
	return 0
}

func run(t *testing.T, src string, maxSteps int) (*CPU, *fakeEnv) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	e := newFakeEnv(p)
	for i := 0; i < maxSteps && c.Step(e); i++ {
	}
	if c.Fault != nil {
		t.Fatalf("fault: %v", c.Fault)
	}
	if !c.halted {
		t.Fatalf("program did not halt in %d steps", maxSteps)
	}
	return c, e
}

func TestArithmetic(t *testing.T) {
	c, _ := run(t, `
		movi r1, 6
		movi r2, 7
		mul  r3, r1, r2   ; 42
		addi r4, r3, 100  ; 142
		sub  r5, r4, r1   ; 136
		div  r6, r5, r2   ; 19
		mod  r7, r5, r2   ; 3
		xor  r8, r1, r2   ; 1
		shli r9, r2, 4    ; 112
		shri r10, r9, 2   ; 28
		not  r11, r0      ; all ones
		halt
	`, 100)
	want := map[int]uint64{3: 42, 4: 142, 5: 136, 6: 19, 7: 3, 8: 1, 9: 112, 10: 28, 11: ^uint64(0)}
	for r, v := range want {
		if c.regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.regs[r], v)
		}
	}
}

func TestR0IsZero(t *testing.T) {
	c, _ := run(t, `
		movi r0, 99
		mov  r1, r0
		halt
	`, 10)
	if c.regs[0] != 0 || c.regs[1] != 0 {
		t.Fatal("r0 must stay zero")
	}
}

func TestLoopAndBranches(t *testing.T) {
	c, _ := run(t, `
		movi r1, 0      ; sum
		movi r2, 0      ; i
		movi r3, 10
	loop:
		add  r1, r1, r2
		addi r2, r2, 1
		blt  r2, r3, loop
		halt
	`, 1000)
	if c.regs[1] != 45 {
		t.Fatalf("sum = %d, want 45", c.regs[1])
	}
}

func TestMemoryAndDataSegment(t *testing.T) {
	c, _ := run(t, `
	.data
	vals: .quad 11, 22, 33
	out:  .quad 0
	.text
		movi r1, vals
		ld   r2, [r1]
		ld   r3, [r1+8]
		ld   r4, [r1+16]
		add  r5, r2, r3
		add  r5, r5, r4
		movi r6, out
		st   [r6], r5
		ld   r7, [r6]
		halt
	`, 100)
	if c.regs[7] != 66 {
		t.Fatalf("stored sum = %d, want 66", c.regs[7])
	}
}

func TestCallRetAndStack(t *testing.T) {
	c, _ := run(t, `
		movi r1, 5
		call double
		call double
		halt
	double:
		add r1, r1, r1
		ret
	`, 100)
	if c.regs[1] != 20 {
		t.Fatalf("r1 = %d, want 20", c.regs[1])
	}
}

func TestPushPop(t *testing.T) {
	c, _ := run(t, `
		movi r1, 7
		movi r2, 9
		push r1
		push r2
		pop  r3   ; 9
		pop  r4   ; 7
		halt
	`, 100)
	if c.regs[3] != 9 || c.regs[4] != 7 {
		t.Fatalf("pop order wrong: r3=%d r4=%d", c.regs[3], c.regs[4])
	}
}

func TestRdtscMonotonic(t *testing.T) {
	c, _ := run(t, `
		rdtsc r1
		ld    r3, [r0+4096]
		rdtsc r2
		halt
	`, 10)
	if c.regs[2] <= c.regs[1] {
		t.Fatal("rdtsc must advance across a load")
	}
}

func TestClflushReachesEnv(t *testing.T) {
	_, e := run(t, `
		movi r1, 0x2000
		clflush [r1+64]
		halt
	`, 10)
	if len(e.flushes) != 1 || e.flushes[0] != 0x2040 {
		t.Fatalf("flushes = %v, want [0x2040]", e.flushes)
	}
}

func TestSysExit(t *testing.T) {
	p, err := asm.Assemble("movi r1, 3\nsys 0\nnop")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	e := newFakeEnv(p)
	for c.Step(e) {
	}
	if !e.exited {
		t.Fatal("SysExit must reach the env")
	}
	if !c.halted {
		t.Fatal("exit must halt the CPU")
	}
}

func TestSysPrintCollectsOutput(t *testing.T) {
	c, _ := run(t, `
		movi r1, 123
		sys 4
		movi r1, 456
		sys 4
		halt
	`, 20)
	if len(c.Output) != 2 || c.Output[0] != 123 || c.Output[1] != 456 {
		t.Fatalf("output = %v", c.Output)
	}
}

func TestSysGetPIDReturnValue(t *testing.T) {
	c, _ := run(t, `
		sys 3
		halt
	`, 10)
	if c.regs[1] != 1 {
		t.Fatalf("getpid returned %d, want 1", c.regs[1])
	}
}

func TestDivByZeroFaults(t *testing.T) {
	p, err := asm.Assemble("movi r1, 1\ndiv r2, r1, r0\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	e := newFakeEnv(p)
	for c.Step(e) {
	}
	if c.Fault == nil || !strings.Contains(c.Fault.Error(), "division by zero") {
		t.Fatalf("fault = %v", c.Fault)
	}
}

func TestRunOffTextFaults(t *testing.T) {
	p, err := asm.Assemble("nop")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	e := newFakeEnv(p)
	for c.Step(e) {
	}
	if c.Fault == nil {
		t.Fatal("running past text must fault")
	}
}

func TestRetiredCount(t *testing.T) {
	c, e := run(t, "nop\nnop\nnop\nhalt", 10)
	if c.Retired != 4 {
		t.Fatalf("retired = %d, want 4", c.Retired)
	}
	if e.instrs != 4 {
		t.Fatalf("env instret = %d, want 4", e.instrs)
	}
}
