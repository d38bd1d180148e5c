package asm

import (
	"strings"
	"testing"

	"timecache/internal/isa"
)

func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestBasicInstructions(t *testing.T) {
	p := mustAsm(t, `
		movi r1, 42
		mov  r2, r1
		add  r3, r1, r2
		addi r4, r3, -5
		halt
	`)
	if len(p.Instrs) != 5 {
		t.Fatalf("got %d instrs, want 5", len(p.Instrs))
	}
	if p.Instrs[0].Op != isa.MOVI || p.Instrs[0].Rd != 1 || p.Instrs[0].Imm != 42 {
		t.Fatalf("movi decoded wrong: %+v", p.Instrs[0])
	}
	if p.Instrs[3].Imm != -5 {
		t.Fatalf("negative immediate: %+v", p.Instrs[3])
	}
	if p.Instrs[4].Op != isa.HALT {
		t.Fatal("halt missing")
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAsm(t, `
	start:
		movi r1, 0
	loop:
		addi r1, r1, 1
		movi r2, 10
		blt  r1, r2, loop
		jmp  done
		nop
	done:
		halt
	`)
	loop, ok := p.Labels["loop"]
	if !ok {
		t.Fatal("label loop undefined")
	}
	if loop != p.TextBase+1*isa.InstrBytes {
		t.Fatalf("loop at %#x, want %#x", loop, p.TextBase+8)
	}
	// blt's target must resolve to loop's address.
	if got := uint64(p.Instrs[3].Imm); got != loop {
		t.Fatalf("blt target %#x, want %#x", got, loop)
	}
	done := p.Labels["done"]
	if got := uint64(p.Instrs[4].Imm); got != done {
		t.Fatalf("jmp target %#x, want %#x", got, done)
	}
}

func TestMemoryOperands(t *testing.T) {
	p := mustAsm(t, `
		ld r1, [r2]
		ld r3, [r4+16]
		ld r5, [r6-8]
		st [r7+24], r8
		clflush [r9]
	`)
	if i := p.Instrs[0]; i.Rs != 2 || i.Imm != 0 {
		t.Fatalf("ld [r2]: %+v", i)
	}
	if i := p.Instrs[1]; i.Rs != 4 || i.Imm != 16 {
		t.Fatalf("ld [r4+16]: %+v", i)
	}
	if i := p.Instrs[2]; i.Rs != 6 || i.Imm != -8 {
		t.Fatalf("ld [r6-8]: %+v", i)
	}
	if i := p.Instrs[3]; i.Op != isa.ST || i.Rs != 7 || i.Imm != 24 || i.Rt != 8 {
		t.Fatalf("st: %+v", i)
	}
	if i := p.Instrs[4]; i.Op != isa.CLFLUSH || i.Rs != 9 {
		t.Fatalf("clflush: %+v", i)
	}
}

func TestDataSectionsAndLabelImmediates(t *testing.T) {
	p := mustAsm(t, `
	.data
	counter: .quad 7
	buf:     .space 64
	.shared
	table:   .quad 1, 2, 3
	.text
		movi r1, counter
		movi r2, table
		movi r3, table+16
		ld   r4, [r1]
	`)
	counter := p.Labels["counter"]
	if counter != p.DataBase {
		t.Fatalf("counter at %#x, want data base %#x", counter, p.DataBase)
	}
	if len(p.Data) != 8+64 {
		t.Fatalf("data segment %d bytes, want 72", len(p.Data))
	}
	if p.Data[0] != 7 {
		t.Fatal(".quad 7 not encoded")
	}
	table := p.Labels["table"]
	if table != p.SharedBase {
		t.Fatalf("table at %#x, want shared base %#x", table, p.SharedBase)
	}
	if len(p.Shared) != 24 {
		t.Fatalf("shared segment %d bytes, want 24", len(p.Shared))
	}
	if uint64(p.Instrs[0].Imm) != counter {
		t.Fatal("movi counter address wrong")
	}
	if uint64(p.Instrs[2].Imm) != table+16 {
		t.Fatal("label+offset expression wrong")
	}
}

func TestQuadLabelFixup(t *testing.T) {
	p := mustAsm(t, `
	.data
	ptr: .quad target
	.text
	target: halt
	`)
	target := p.Labels["target"]
	var got uint64
	for i := 0; i < 8; i++ {
		got |= uint64(p.Data[i]) << (8 * i)
	}
	if got != target {
		t.Fatalf("data fixup = %#x, want %#x", got, target)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p := mustAsm(t, `
	; full line comment
	# hash comment
		movi r1, 1 ; trailing
		halt       # trailing hash
	`)
	if len(p.Instrs) != 2 {
		t.Fatalf("got %d instrs, want 2", len(p.Instrs))
	}
}

func TestSPAlias(t *testing.T) {
	p := mustAsm(t, `
		movi sp, 0x1000
		push r1
		pop  r2
	`)
	if p.Instrs[0].Rd != isa.RSP {
		t.Fatal("sp alias must map to r15")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"bogus r1, r2", "unknown mnemonic"},
		{"movi r77, 1", "bad register"},
		{"movi r1", "takes 2 operands"},
		{".data\nmovi r1, 1", "only allowed in .text"},
		{"ld r1, r2", "bad memory operand"},
		{"jmp nowhere", "undefined symbol"},
		{"x: halt\nx: halt", "duplicate label"},
		{".quad 1", "not allowed in .text"},
		{".bogus", "unknown directive"},
		{"9lbl: halt", "invalid label"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("source %q: expected error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("source %q: error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line 3 in error, got %v", err)
	}
}

func TestAllOpcodesAssemble(t *testing.T) {
	src := `
	lbl:
		nop
		movi r1, 5
		mov r2, r1
		add r3, r1, r2
		addi r3, r3, 1
		sub r4, r3, r1
		mul r5, r4, r2
		div r6, r5, r2
		mod r7, r5, r2
		and r8, r7, r1
		or  r9, r8, r1
		xor r10, r9, r1
		not r11, r10
		shl r12, r1, r2
		shli r12, r1, 3
		shr r13, r12, r2
		shri r13, r12, 3
		ld r1, [r2+8]
		st [r2+8], r1
		clflush [r2]
		rdtsc r14
		fence
		jmp lbl
		beq r1, r2, lbl
		bne r1, r2, lbl
		blt r1, r2, lbl
		bge r1, r2, lbl
		call lbl
		ret
		push r1
		pop r2
		sys 1
		halt
	`
	p := mustAsm(t, src)
	if len(p.Instrs) != 33 {
		t.Fatalf("got %d instrs, want 33", len(p.Instrs))
	}
}

func TestInstrStringRoundTripish(t *testing.T) {
	// String() must produce something containing the mnemonic for each op.
	p := mustAsm(t, "movi r1, 3\nld r2, [r1+8]\nst [r1], r2\nhalt")
	for _, in := range p.Instrs {
		s := in.String()
		if s == "" || strings.HasPrefix(s, "Op(") {
			t.Errorf("bad String for %+v: %q", in, s)
		}
	}
}

func TestByteAsciiAlignDirectives(t *testing.T) {
	p := mustAsm(t, `
	.data
	bytes: .byte 1, 2, 255
	       .align 8
	msg:   .ascii "hi;#\n\0"
	.text
		halt
	`)
	if p.Data[0] != 1 || p.Data[1] != 2 || p.Data[2] != 255 {
		t.Fatalf(".byte encoding wrong: %v", p.Data[:3])
	}
	msg := p.Labels["msg"]
	off := msg - p.DataBase
	if off%8 != 0 {
		t.Fatalf(".align failed: msg at offset %d", off)
	}
	want := []byte{'h', 'i', ';', '#', '\n', 0}
	got := p.Data[off : off+uint64(len(want))]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf(".ascii byte %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDirectiveErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{".data\n.byte 300", "bad byte value"},
		{".data\n.align 3", "power of two"},
		{".data\n.ascii nope", "bad string literal"},
		{".data\n.ascii \"bad\\q\"", "unknown escape"},
		{".byte 1", "not allowed in .text"},
		{".ascii \"x\"", "not allowed in .text"},
		{".align 4", "not allowed in .text"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("source %q: err %v, want containing %q", c.src, err, c.want)
		}
	}
}
