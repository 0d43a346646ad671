// Package emu implements the architectural (functional) emulator for CO64
// programs. The emulator is the oracle for the timing model: it executes
// the program in order, producing the dynamic instruction stream — with
// per-instruction source values, results, effective addresses, and branch
// outcomes — that internal/pipeline replays through the cycle-level model
// and validates against at retirement.
package emu

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Program is an executable CO64 image: code plus an initial data segment.
// Code and Data must not change once the program has executed: the
// interpreter decodes Code once, on first execution, and runs every
// machine of the program from that table, and NewMemory builds the
// data image once and shares it.
type Program struct {
	// Name identifies the program in stats output.
	Name string
	// Code is the instruction sequence; PC values index this slice.
	Code []isa.Inst
	// Data holds (address, bytes) initial-memory chunks.
	Data []Segment
	// Entry is the initial PC.
	Entry uint64
	// Symbols maps label names to their values: instruction indices for
	// code labels, byte addresses for data labels. Populated by the
	// assembler; useful for locating result cells in tests and tools.
	Symbols map[string]uint64

	decodeOnce sync.Once
	table      []decoded
	imageOnce  sync.Once
	image      *mem.Memory // frozen: owns no pages, shared by every NewMemory
}

// Symbol looks up a label defined in the program source.
func (p *Program) Symbol(name string) (uint64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// Segment is one initialized data region.
type Segment struct {
	Addr  uint64
	Bytes []byte
}

// NewMemory returns a fresh memory image holding the program's data
// segments. The image is built once per program, on first use, and
// frozen; each call hands out a copy-on-write view of it (mem.Share),
// so a new machine copies only the pages it stores to, and stores
// through one view are never seen by another. Like Code, Data must not
// change once the program has run.
func (p *Program) NewMemory() *mem.Memory {
	p.imageOnce.Do(func() {
		m := mem.New()
		for _, s := range p.Data {
			m.WriteBlock(s.Addr, s.Bytes)
		}
		p.image = m.Share() // a frozen view: owns no pages
	})
	return p.image.Share()
}

// DynInst is one dynamic (executed) instruction, as observed by the
// oracle. The timing model treats these values as the instruction's true
// semantics; every optimizer decision is checked against them.
type DynInst struct {
	// Seq is the dynamic sequence number (0-based).
	Seq uint64
	// PC is the instruction index in Program.Code.
	PC uint64
	// Inst points at the static instruction.
	Inst *isa.Inst
	// SrcVals holds the architectural values of the instruction's
	// register sources, in isa.Inst.Sources order.
	SrcVals [2]uint64
	// Result is the value written to the destination register, when the
	// instruction writes one (including JSR's return address).
	Result uint64
	// Addr is the effective address for loads and stores.
	Addr uint64
	// StoreVal is the value written to memory by stores.
	StoreVal uint64
	// Taken reports the branch outcome for control instructions.
	Taken bool
	// NextPC is the PC of the next dynamic instruction.
	NextPC uint64
	// Halt marks the final HALT instruction of the run.
	Halt bool
}

// Machine is the architectural state of a CO64 core: the 64 registers
// (floats stored as IEEE bits), data memory and PC.
type Machine struct {
	Mem *mem.Memory
	PC  uint64

	// regs is the register file indexed by interpreter slot: the 64
	// architectural registers, then the read-as-zero and write-sink
	// slots.
	regs [numSlots]uint64
	prog *Program
	code []decoded
	seq  uint64
	halt bool
}

// New constructs a machine ready to execute p from its entry point with a
// fresh copy of the program's data image.
func New(p *Program) *Machine {
	return &Machine{Mem: p.NewMemory(), PC: p.Entry, prog: p, code: p.decoded()}
}

// Halted reports whether the machine has executed HALT.
func (m *Machine) Halted() bool { return m.halt }

// InstCount returns the number of dynamic instructions executed so far.
func (m *Machine) InstCount() uint64 { return m.seq }

// Reg reads an architectural register, honoring the hardwired zeros.
func (m *Machine) Reg(r isa.Reg) uint64 {
	return m.regs[readSlot(r)]
}

// Regs returns a copy of the architectural register file (floats as
// IEEE bits; the hardwired zeros read as zero).
func (m *Machine) Regs() [isa.NumRegs]uint64 {
	var out [isa.NumRegs]uint64
	copy(out[:], m.regs[:isa.NumRegs])
	return out
}

// setRegs installs an architectural register file.
func (m *Machine) setRegs(regs *[isa.NumRegs]uint64) {
	copy(m.regs[:isa.NumRegs], regs[:])
}

// EvalALU computes the architectural result of a non-memory, non-control
// CO64 operation given its (up to two) input values. It is shared by the
// emulator and by the optimizer's early-execution ALUs, guaranteeing the
// two agree bit-for-bit. EvalALU panics on opcodes outside its domain.
func EvalALU(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SLL:
		return a << (b & 63)
	case isa.SRL:
		return a >> (b & 63)
	case isa.SRA:
		return uint64(int64(a) >> (b & 63))
	case isa.CMPEQ:
		return b2u(a == b)
	case isa.CMPLT:
		return b2u(int64(a) < int64(b))
	case isa.CMPLE:
		return b2u(int64(a) <= int64(b))
	case isa.CMPULT:
		return b2u(a < b)
	case isa.MOV, isa.LDI:
		return a
	case isa.MUL:
		return a * b
	case isa.MULH:
		hi, _ := bits.Mul64(a, b)
		return hi
	case isa.DIV:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case isa.REM:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case isa.FADD:
		return fbits(f64(a) + f64(b))
	case isa.FSUB:
		return fbits(f64(a) - f64(b))
	case isa.FMUL:
		return fbits(f64(a) * f64(b))
	case isa.FDIV:
		return fbits(f64(a) / f64(b))
	case isa.FNEG:
		return fbits(-f64(a))
	case isa.FCMPEQ:
		return b2u(f64(a) == f64(b))
	case isa.FCMPLT:
		return b2u(f64(a) < f64(b))
	case isa.FMOV:
		return a
	case isa.ITOF:
		return fbits(float64(int64(a)))
	case isa.FTOI:
		return uint64(int64(f64(a)))
	}
	panic(fmt.Sprintf("emu: EvalALU called with %v", op))
}

// BranchTaken evaluates a conditional branch condition against the source
// value. It is shared with the optimizer's early branch resolution.
func BranchTaken(op isa.Op, a uint64) bool {
	switch op {
	case isa.BEQ:
		return a == 0
	case isa.BNE:
		return a != 0
	case isa.BLT:
		return int64(a) < 0
	case isa.BGE:
		return int64(a) >= 0
	case isa.BLE:
		return int64(a) <= 0
	case isa.BGT:
		return int64(a) > 0
	}
	panic(fmt.Sprintf("emu: BranchTaken called with %v", op))
}

// Checkpoint is a self-contained architectural snapshot of a Machine:
// everything needed to resume execution at the same dynamic instruction
// — PC, register file, a private deep copy of the memory image, and the
// dynamic instruction count. Checkpoints are what the sampled-simulation
// subsystem fast-forwards between: internal/sample captures one at each
// detailed-window start and seeds a fresh pipeline.Session from it.
//
// A checkpoint's memory image is immutable: Snapshot, Restore and NewAt
// share its pages copy-on-write (mem.Memory.Share), so neither later
// execution of the source machine nor execution of a machine restored
// from the checkpoint can mutate it, and none of them copies a page it
// does not write. A single checkpoint may therefore seed any number of
// machines, concurrently. Consecutive checkpoints of one run share every
// page the run did not write between them.
type Checkpoint struct {
	// Program is the name of the program the snapshot was taken from;
	// Restore and NewAt reject a checkpoint of a different program.
	Program string
	// PC is the next instruction to execute.
	PC uint64
	// InstCount is the number of dynamic instructions executed before
	// the checkpoint (the resume point's 0-based sequence number).
	InstCount uint64
	// Halted records whether the machine had already executed HALT.
	Halted bool
	// Regs is the architectural register file (floats as IEEE bits).
	Regs [isa.NumRegs]uint64
	// Mem is the checkpoint's memory image; it must not be written.
	Mem *mem.Memory
}

// Snapshot captures the machine's architectural state as a checkpoint.
// The memory image is shared copy-on-write, so the snapshot copies no
// page, and the machine may keep running (and storing) without
// disturbing it: the first store to each page copies that page.
func (m *Machine) Snapshot() *Checkpoint {
	return &Checkpoint{
		Program:   m.prog.Name,
		PC:        m.PC,
		InstCount: m.seq,
		Halted:    m.halt,
		Regs:      m.Regs(),
		Mem:       m.Mem.Share(),
	}
}

// Restore replaces the machine's architectural state with the
// checkpoint's. The checkpoint's memory image is shared copy-on-write,
// so the checkpoint stays reusable after the restored machine resumes
// (and stores). Restore panics when the checkpoint belongs to a different
// program — resuming another program's state is a programming error.
func (m *Machine) Restore(c *Checkpoint) {
	if c.Program != m.prog.Name {
		panic(fmt.Sprintf("emu: restoring %q checkpoint into %q machine", c.Program, m.prog.Name))
	}
	m.setRegs(&c.Regs)
	m.Mem = c.Mem.Share()
	m.PC = c.PC
	m.seq = c.InstCount
	m.halt = c.Halted
}

// NewAt constructs a machine for p resumed at checkpoint c — the
// functional-fast-forward entry point: snapshot one machine mid-run,
// then seed as many fresh machines (or pipeline sessions) as needed
// from the same architectural instant. Unlike New followed by Restore,
// NewAt never materializes the program's initial data image — the
// checkpoint's image fully replaces it, shared copy-on-write, so a
// resumed machine costs only the pages it writes; sampled simulation
// builds one machine per detailed window.
func NewAt(p *Program, c *Checkpoint) *Machine {
	if c.Program != p.Name {
		panic(fmt.Sprintf("emu: resuming %q checkpoint on program %q", c.Program, p.Name))
	}
	m := &Machine{
		Mem:  c.Mem.Share(),
		PC:   c.PC,
		prog: p,
		code: p.decoded(),
		seq:  c.InstCount,
		halt: c.Halted,
	}
	m.setRegs(&c.Regs)
	return m
}

// Step executes one instruction and returns its dynamic record. Calling
// Step after HALT returns nil.
func (m *Machine) Step() *DynInst {
	if m.halt {
		return nil
	}
	d := new(DynInst)
	m.exec(1, d, nil)
	return d
}

// StepInto executes one instruction into the caller-owned record d —
// the allocation-free form of Step (the pipeline's fetch stage passes
// arena-recycled records). It reports whether an instruction executed:
// false means the machine had already halted and d is untouched.
func (m *Machine) StepInto(d *DynInst) bool {
	if m.halt {
		return false
	}
	m.exec(1, d, nil)
	return true
}

// Run executes until HALT or until max instructions have run (max <= 0
// means unlimited). It returns the number of instructions executed. Run
// writes no dynamic records — architectural effects only — so
// fast-forwarding costs a fraction of observed stepping.
func (m *Machine) Run(max uint64) uint64 {
	if max == 0 {
		max = math.MaxUint64
	}
	return m.exec(max, nil, nil)
}

// RunObserved executes until HALT or until max instructions have run
// (max <= 0 means unlimited), invoking fn on every dynamic record, and
// returns the number of instructions executed. The record is reused
// across calls — fn must not retain it — which keeps observed
// fast-forward (e.g. functional cache/predictor warming in sampled
// simulation) allocation-free like Run.
func (m *Machine) RunObserved(max uint64, fn func(*DynInst)) uint64 {
	if max == 0 {
		max = math.MaxUint64
	}
	var scratch DynInst
	return m.exec(max, &scratch, fn)
}

// RunProgram executes p to completion (bounded by max when max > 0) and
// returns the final machine, for tests that check architectural results.
func RunProgram(p *Program, max uint64) *Machine {
	m := New(p)
	m.Run(max)
	return m
}
