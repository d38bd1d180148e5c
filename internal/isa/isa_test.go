package isa

import (
	"strings"
	"testing"
)

func TestOpNamesBijective(t *testing.T) {
	for name, op := range OpByName {
		if op.String() != name {
			t.Errorf("OpByName[%q] = %v, String() = %q", name, op, op.String())
		}
	}
	if len(OpByName) != int(numOps) {
		t.Errorf("OpByName has %d entries, want %d", len(OpByName), numOps)
	}
}

func TestUnknownOpString(t *testing.T) {
	if got := Op(200).String(); !strings.HasPrefix(got, "Op(") {
		t.Errorf("unknown op string: %q", got)
	}
}

func TestInstrAt(t *testing.T) {
	p := &Program{
		TextBase: 0x1000,
		Instrs:   []Instr{{Op: NOP}, {Op: HALT}},
	}
	in, err := p.InstrAt(0x1000)
	if err != nil || in.Op != NOP {
		t.Fatalf("InstrAt(base) = %v, %v", in, err)
	}
	in, err = p.InstrAt(0x1008)
	if err != nil || in.Op != HALT {
		t.Fatalf("InstrAt(base+8) = %v, %v", in, err)
	}
	if _, err := p.InstrAt(0x1010); err == nil {
		t.Error("pc past end must error")
	}
	if _, err := p.InstrAt(0x1004); err == nil {
		t.Error("misaligned pc must error")
	}
	if _, err := p.InstrAt(0x800); err == nil {
		t.Error("pc before text must error")
	}
}

func TestInstrStringCoversAllOps(t *testing.T) {
	for name, op := range OpByName {
		in := Instr{Op: op, Rd: 1, Rs: 2, Rt: 3, Imm: 4}
		s := in.String()
		if s == "" {
			t.Errorf("empty String for %s", name)
		}
		if strings.HasPrefix(s, "Op(") {
			t.Errorf("String for %s fell through to default: %q", name, s)
		}
	}
}

func TestRegisterConventions(t *testing.T) {
	if RZero != 0 || RSP != 15 || NumRegs != 16 {
		t.Fatal("register conventions changed; assembler and VM depend on these")
	}
	if InstrBytes != 8 {
		t.Fatal("instruction size must be 8 bytes (8 per cache line)")
	}
}
