// Package isa defines μRISC, the small instruction set the simulator's
// programs are written in: 16 general registers, 64-bit words, loads and
// stores, unsigned compare-and-branch, a stack, and the side-channel
// primitives the paper's attacks require — CLFLUSH, RDTSC, and FENCE.
//
// Every instruction occupies 8 bytes of the text segment, so a 64-byte
// cache line holds 8 instructions; instruction fetches go through the L1I.
package isa

import "fmt"

// InstrBytes is the encoded size of one instruction in the text segment.
const InstrBytes = 8

// Register conventions: R0 is hardwired to zero; R15 is the stack pointer.
const (
	NumRegs = 16
	RZero   = 0
	RSP     = 15
)

// Op is a μRISC opcode.
type Op uint8

// Opcodes.
const (
	NOP Op = iota
	HALT
	MOVI    // rd <- imm
	MOV     // rd <- rs
	ADD     // rd <- rs + rt
	ADDI    // rd <- rs + imm
	SUB     // rd <- rs - rt
	MUL     // rd <- rs * rt
	DIV     // rd <- rs / rt (unsigned; rt==0 traps)
	MOD     // rd <- rs % rt (unsigned; rt==0 traps)
	AND     // rd <- rs & rt
	OR      // rd <- rs | rt
	XOR     // rd <- rs ^ rt
	NOT     // rd <- ^rs
	SHL     // rd <- rs << (rt & 63)
	SHLI    // rd <- rs << (imm & 63)
	SHR     // rd <- rs >> (rt & 63) (logical)
	SHRI    // rd <- rs >> (imm & 63)
	LD      // rd <- mem[rs + imm]
	ST      // mem[rs + imm] <- rt
	CLFLUSH // flush line containing rs + imm
	RDTSC   // rd <- cycle counter
	FENCE   // order memory and rdtsc (timing fence)
	JMP     // pc <- imm
	BEQ     // if rs == rt: pc <- imm
	BNE     // if rs != rt: pc <- imm
	BLT     // if rs <  rt (unsigned): pc <- imm
	BGE     // if rs >= rt (unsigned): pc <- imm
	CALL    // push pc+8; pc <- imm
	RET     // pc <- pop
	PUSH    // sp -= 8; mem[sp] <- rs
	POP     // rd <- mem[sp]; sp += 8
	SYS     // syscall: number imm, argument r1, result -> r1
	numOps
)

var opNames = [...]string{
	NOP: "nop", HALT: "halt", MOVI: "movi", MOV: "mov", ADD: "add",
	ADDI: "addi", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", NOT: "not", SHL: "shl", SHLI: "shli",
	SHR: "shr", SHRI: "shri", LD: "ld", ST: "st", CLFLUSH: "clflush",
	RDTSC: "rdtsc", FENCE: "fence", JMP: "jmp", BEQ: "beq", BNE: "bne",
	BLT: "blt", BGE: "bge", CALL: "call", RET: "ret", PUSH: "push",
	POP: "pop", SYS: "sys",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// OpByName maps mnemonic to opcode; the assembler uses it.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// Instr is one decoded μRISC instruction.
type Instr struct {
	Op         Op
	Rd, Rs, Rt uint8
	Imm        int64
}

func (i Instr) String() string {
	switch i.Op {
	case NOP, HALT, RET, FENCE:
		return i.Op.String()
	case MOVI:
		return fmt.Sprintf("movi r%d, %d", i.Rd, i.Imm)
	case LD:
		return fmt.Sprintf("ld r%d, [r%d%+d]", i.Rd, i.Rs, i.Imm)
	case ST:
		return fmt.Sprintf("st [r%d%+d], r%d", i.Rs, i.Imm, i.Rt)
	case CLFLUSH:
		return fmt.Sprintf("clflush [r%d%+d]", i.Rs, i.Imm)
	case JMP, CALL:
		return fmt.Sprintf("%s %#x", i.Op, uint64(i.Imm))
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s r%d, r%d, %#x", i.Op, i.Rs, i.Rt, uint64(i.Imm))
	case SYS:
		return fmt.Sprintf("sys %d", i.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d (imm=%d)", i.Op, i.Rd, i.Rs, i.Rt, i.Imm)
	}
}

// Program is an assembled μRISC binary: a text segment of instructions plus
// initialized private and shared data segments.
type Program struct {
	// TextBase is the virtual address of Instrs[0]; instruction k lives at
	// TextBase + k*InstrBytes.
	TextBase uint64
	Instrs   []Instr

	// DataBase/Data is the private initialized data segment.
	DataBase uint64
	Data     []byte

	// SharedBase/Shared is the segment the loader maps to shared physical
	// frames (a shared library image): processes loaded with the same share
	// key reference the same frames.
	SharedBase uint64
	Shared     []byte

	// StackTop is the initial stack pointer (stack grows down).
	StackTop uint64
	// StackSize is the reserved stack region size in bytes.
	StackSize uint64

	// Labels maps every assembler label to its virtual address.
	Labels map[string]uint64

	// Entry is the initial PC.
	Entry uint64
}

// InstrAt returns the instruction at virtual address pc, or an error if pc
// is outside the text segment or misaligned.
func (p *Program) InstrAt(pc uint64) (Instr, error) {
	if pc < p.TextBase || (pc-p.TextBase)%InstrBytes != 0 {
		return Instr{}, fmt.Errorf("isa: bad pc %#x", pc)
	}
	k := (pc - p.TextBase) / InstrBytes
	if k >= uint64(len(p.Instrs)) {
		return Instr{}, fmt.Errorf("isa: pc %#x past end of text", pc)
	}
	return p.Instrs[k], nil
}
