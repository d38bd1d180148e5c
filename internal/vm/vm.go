// Package vm interprets μRISC programs. One CPU executes one program; each
// Step runs a single instruction: the fetch goes through the simulated L1I,
// loads/stores through the L1D, and every instruction charges at least one
// compute cycle, matching the TimingSimpleCPU model the paper evaluates on.
package vm

import (
	"fmt"

	"timecache/internal/isa"
	"timecache/internal/sim"
)

// CPU is a μRISC interpreter implementing sim.Proc.
type CPU struct {
	prog *isa.Program
	regs [isa.NumRegs]uint64
	pc   uint64

	halted bool
	// Fault holds the first execution fault (bad PC, division by zero);
	// the CPU halts when it faults.
	Fault error

	// Retired counts executed instructions.
	Retired uint64
	// Output collects SysPrint values for tests and examples.
	Output []uint64
}

// New creates a CPU ready to run prog from its entry point with the stack
// pointer set to the program's stack top.
func New(prog *isa.Program) *CPU {
	c := &CPU{prog: prog, pc: prog.Entry}
	c.regs[isa.RSP] = prog.StackTop
	return c
}

// SetReg sets register r (r0 stays zero).
func (c *CPU) SetReg(r int, v uint64) {
	if r != isa.RZero {
		c.regs[r] = v
	}
}

func (c *CPU) fault(format string, args ...any) bool {
	c.Fault = fmt.Errorf("vm: pc=%#x: %s", c.pc, fmt.Sprintf(format, args...))
	c.halted = true
	return false
}

// Step executes one instruction. It implements sim.Proc.
func (c *CPU) Step(env sim.Env) bool {
	if c.halted {
		return false
	}
	in, err := c.prog.InstrAt(c.pc)
	if err != nil {
		return c.fault("%v", err)
	}
	env.Fetch(c.pc)
	env.Tick(1)
	env.Instret(1)
	c.Retired++

	next := c.pc + isa.InstrBytes
	rd, rs, rt := int(in.Rd), int(in.Rs), int(in.Rt)
	switch in.Op {
	case isa.NOP, isa.FENCE:
		// FENCE orders memory with RDTSC; in this in-order one-access-at-a-
		// time model ordering is inherent, so it costs only its cycle.
	case isa.HALT:
		c.halted = true
		return false
	case isa.MOVI:
		c.SetReg(rd, uint64(in.Imm))
	case isa.MOV:
		c.SetReg(rd, c.regs[rs])
	case isa.ADD:
		c.SetReg(rd, c.regs[rs]+c.regs[rt])
	case isa.ADDI:
		c.SetReg(rd, c.regs[rs]+uint64(in.Imm))
	case isa.SUB:
		c.SetReg(rd, c.regs[rs]-c.regs[rt])
	case isa.MUL:
		c.SetReg(rd, c.regs[rs]*c.regs[rt])
	case isa.DIV:
		if c.regs[rt] == 0 {
			return c.fault("division by zero")
		}
		c.SetReg(rd, c.regs[rs]/c.regs[rt])
	case isa.MOD:
		if c.regs[rt] == 0 {
			return c.fault("modulo by zero")
		}
		c.SetReg(rd, c.regs[rs]%c.regs[rt])
	case isa.AND:
		c.SetReg(rd, c.regs[rs]&c.regs[rt])
	case isa.OR:
		c.SetReg(rd, c.regs[rs]|c.regs[rt])
	case isa.XOR:
		c.SetReg(rd, c.regs[rs]^c.regs[rt])
	case isa.NOT:
		c.SetReg(rd, ^c.regs[rs])
	case isa.SHL:
		c.SetReg(rd, c.regs[rs]<<(c.regs[rt]&63))
	case isa.SHLI:
		c.SetReg(rd, c.regs[rs]<<(uint64(in.Imm)&63))
	case isa.SHR:
		c.SetReg(rd, c.regs[rs]>>(c.regs[rt]&63))
	case isa.SHRI:
		c.SetReg(rd, c.regs[rs]>>(uint64(in.Imm)&63))
	case isa.LD:
		c.SetReg(rd, env.Load(c.regs[rs]+uint64(in.Imm)))
	case isa.ST:
		env.Store(c.regs[rs]+uint64(in.Imm), c.regs[rt])
	case isa.CLFLUSH:
		env.Flush(c.regs[rs] + uint64(in.Imm))
	case isa.RDTSC:
		c.SetReg(rd, env.Now())
	case isa.JMP:
		next = uint64(in.Imm)
	case isa.BEQ:
		if c.regs[rs] == c.regs[rt] {
			next = uint64(in.Imm)
		}
	case isa.BNE:
		if c.regs[rs] != c.regs[rt] {
			next = uint64(in.Imm)
		}
	case isa.BLT:
		if c.regs[rs] < c.regs[rt] {
			next = uint64(in.Imm)
		}
	case isa.BGE:
		if c.regs[rs] >= c.regs[rt] {
			next = uint64(in.Imm)
		}
	case isa.CALL:
		c.regs[isa.RSP] -= 8
		env.Store(c.regs[isa.RSP], next)
		next = uint64(in.Imm)
	case isa.RET:
		next = env.Load(c.regs[isa.RSP])
		c.regs[isa.RSP] += 8
	case isa.PUSH:
		c.regs[isa.RSP] -= 8
		env.Store(c.regs[isa.RSP], c.regs[rs])
	case isa.POP:
		c.SetReg(rd, env.Load(c.regs[isa.RSP]))
		c.regs[isa.RSP] += 8
	case isa.SYS:
		switch uint64(in.Imm) {
		case sim.SysExit:
			c.halted = true
			env.Syscall(sim.SysExit, c.regs[1])
			return false
		case sim.SysPrint:
			c.Output = append(c.Output, c.regs[1])
			env.Syscall(sim.SysPrint, c.regs[1])
		default:
			c.regs[1] = env.Syscall(uint64(in.Imm), c.regs[1])
		}
	default:
		return c.fault("illegal opcode %v", in.Op)
	}
	c.pc = next
	return true
}
