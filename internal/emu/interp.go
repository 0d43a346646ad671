package emu

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// The predecoded interpreter. Each Program is decoded once, on first
// execution, into a table with one entry per instruction: a dispatch
// opcode plus operands resolved to register-file slots. Every way of
// executing a program goes through exec, which dispatches each
// instruction with one switch and reads operands without
// register-validity checks. Run calls it directly and writes no
// records; StepInto — and through it Step, Record and the live
// pipeline sessions — builds each dynamic record around a
// one-instruction exec, so the raw loop carries no per-instruction
// record checks.
//
// RunEvents, the functional-warming path, runs the same loop over a
// second table, the observing table, built on first use: a copy of the
// first in which every load and control transfer dispatches to one
// extra case, opEvent. That case appends the instruction's Event and
// executes the instruction itself; every other instruction runs
// exactly as under Run.

// Register-file slots. Slots 0..63 are the architectural registers.
// Both hardwired-zero registers and absent operands read zeroSlot, which
// is never written; hardwired-zero and absent destinations, and
// instructions that write no register, write sinkSlot, which is never
// read. The register file has a slot for every uint8, so indexing it
// with a decoded slot needs no bounds check.
const (
	zeroSlot = isa.NumRegs
	sinkSlot = isa.NumRegs + 1
	numSlots = 1 << 8
)

// opEvent is the observing table's dispatch opcode for loads and
// control transfers; the entry's orig field holds the real opcode.
const opEvent = isa.Op(isa.NumOps)

// decoded is one predecoded instruction.
type decoded struct {
	// op is the dispatch opcode; an invalid opcode decodes as NOP.
	op isa.Op
	// dst is the slot the instruction's result is written to.
	dst uint8
	// a is the first operand's slot; b is the second operand's slot for
	// register-form ALU operations and the data slot for stores.
	a, b uint8
	// srcs are the slots of Inst.Sources(), in order, padded with
	// zeroSlot.
	srcs [2]uint8
	// class is op's class, for StepInto's record (and, in the
	// observing table, orig's class).
	class isa.Class
	// orig is the opcode an opEvent entry executes once it has
	// recorded its event; zero elsewhere.
	orig isa.Op
	// imm is the resolved immediate: the ALU second operand (b is then
	// zeroSlot, so b+imm is the operand in either form), the LDI value,
	// the load/store displacement or the branch target.
	imm uint64
}

// readSlot maps a source register to its slot.
func readSlot(r isa.Reg) uint8 {
	if r.IsZero() || !r.Valid() {
		return zeroSlot
	}
	return uint8(r)
}

// writeSlot maps a destination register to its slot.
func writeSlot(r isa.Reg) uint8 {
	if r.IsZero() || !r.Valid() {
		return sinkSlot
	}
	return uint8(r)
}

// decode builds the interpreter table for code, one entry per
// instruction.
func decode(code []isa.Inst) []decoded {
	out := make([]decoded, len(code))
	for i := range code {
		in := &code[i]
		e := decoded{op: in.Op, dst: sinkSlot, a: readSlot(in.SrcA), b: zeroSlot, srcs: [2]uint8{zeroSlot, zeroSlot}}
		srcs, n := in.Sources()
		for j := 0; j < n; j++ {
			e.srcs[j] = readSlot(srcs[j])
		}
		switch in.Op.Class() {
		case isa.ClassSimpleInt, isa.ClassComplexInt, isa.ClassFP:
			e.dst = writeSlot(in.Dst)
			if in.Op == isa.LDI || in.HasImm {
				e.imm = uint64(in.Imm)
			} else {
				e.b = readSlot(in.SrcB)
			}
		case isa.ClassLoad:
			e.dst = writeSlot(in.Dst)
			e.imm = uint64(in.Imm)
		case isa.ClassStore:
			e.b = readSlot(in.SrcB)
			e.imm = uint64(in.Imm)
		case isa.ClassBranch:
			if in.Op == isa.JSR {
				e.dst = writeSlot(in.Dst)
			}
			e.imm = uint64(in.Imm)
		case isa.ClassHalt:
		default:
			e.op = isa.NOP
		}
		e.class = e.op.Class()
		out[i] = e
	}
	return out
}

// decoded returns p's interpreter table, decoding it on first use.
func (p *Program) decoded() []decoded {
	p.decodeOnce.Do(func() { p.table = decode(p.Code) })
	return p.table
}

// observing returns p's observing table, building it on first use: the
// interpreter table with every load and control transfer dispatching to
// opEvent.
func (p *Program) observing() []decoded {
	p.observeOnce.Do(func() {
		t := slices.Clone(p.decoded())
		for i := range t {
			if c := t[i].class; c == isa.ClassLoad || c == isa.ClassBranch {
				t[i].op, t[i].orig = opEvent, t[i].op
			}
		}
		p.observeTable = t
	})
	return p.observeTable
}

// takenMask holds, for each control-transfer opcode, which of the
// operand's sign classes (see signClass) take it: bit k is set when
// operands of class k do. It is derived from BranchTaken, and both the
// observing table's events and StepInto's records read it, so they
// agree, and neither pays BranchTaken's call.
var takenMask = func() (t [isa.NumOps]uint8) {
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		if !op.IsBranch() {
			continue
		}
		for _, v := range []uint64{math.MaxUint64, 0, 1} { // -1, 0, 1
			if op.IsUncondBranch() || BranchTaken(op, v) {
				t[op] |= 1 << signClass(v)
			}
		}
	}
	return t
}()

// signClass is 0 for a negative operand, 1 for zero and 2 for a
// positive one: all that decides whether a conditional branch is taken.
func signClass(x uint64) uint64 {
	return b2u(x == 0) | b2u(int64(x) > 0)<<1
}

func f64(b uint64) float64   { return math.Float64frombits(b) }
func fbits(f float64) uint64 { return math.Float64bits(f) }
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// exec executes up to n instructions from m.code (the program's
// interpreter table, or its observing table while RunEvents runs),
// stopping early at HALT, and returns how many ran. The loop keeps only
// its count and the PC live across the dispatch: HALT ends it by
// lowering n, and so does an event that fills m.events.
func (m *Machine) exec(n uint64) uint64 {
	if m.halt {
		return 0
	}
	code, r := m.code, &m.regs
	pc := m.PC
	var i uint64
	for ; i < n; i++ {
		if pc >= uint64(len(code)) {
			m.PC, m.seq = pc, m.seq+i
			panic(fmt.Sprintf("emu: PC %d outside program %q (len %d)", pc, m.prog.Name, len(code)))
		}
		e := &code[pc]
		x, y := r[e.a], r[e.b]+e.imm
		var res uint64
		next := pc + 1
		switch e.op {
		case isa.ADD:
			res = x + y
		case isa.SUB:
			res = x - y
		case isa.AND:
			res = x & y
		case isa.OR:
			res = x | y
		case isa.XOR:
			res = x ^ y
		case isa.SLL:
			res = x << (y & 63)
		case isa.SRL:
			res = x >> (y & 63)
		case isa.SRA:
			res = uint64(int64(x) >> (y & 63))
		case isa.CMPEQ:
			res = b2u(x == y)
		case isa.CMPLT:
			res = b2u(int64(x) < int64(y))
		case isa.CMPLE:
			res = b2u(int64(x) <= int64(y))
		case isa.CMPULT:
			res = b2u(x < y)
		case isa.MOV, isa.FMOV:
			res = x
		case isa.LDI:
			res = y
		case isa.MUL:
			res = x * y
		case isa.MULH:
			res, _ = bits.Mul64(x, y)
		case isa.DIV:
			if y != 0 {
				res = uint64(int64(x) / int64(y))
			}
		case isa.REM:
			if y != 0 {
				res = uint64(int64(x) % int64(y))
			}
		case isa.FADD:
			res = fbits(f64(x) + f64(y))
		case isa.FSUB:
			res = fbits(f64(x) - f64(y))
		case isa.FMUL:
			res = fbits(f64(x) * f64(y))
		case isa.FDIV:
			res = fbits(f64(x) / f64(y))
		case isa.FNEG:
			res = fbits(-f64(x))
		case isa.FCMPEQ:
			res = b2u(f64(x) == f64(y))
		case isa.FCMPLT:
			res = b2u(f64(x) < f64(y))
		case isa.ITOF:
			res = fbits(float64(int64(x)))
		case isa.FTOI:
			res = uint64(int64(f64(x)))
		case isa.LDQ, isa.FLDQ:
			res = m.Mem.Load64(x + e.imm)
		case isa.LDL:
			res = uint64(int64(int32(m.Mem.Load32(x + e.imm))))
		case isa.STQ, isa.FSTQ:
			m.Mem.Store64(x+e.imm, r[e.b])
		case isa.STL:
			m.Mem.Store32(x+e.imm, uint32(r[e.b]))
		case isa.BEQ:
			if x == 0 {
				next = e.imm
			}
		case isa.BNE:
			if x != 0 {
				next = e.imm
			}
		case isa.BLT:
			if int64(x) < 0 {
				next = e.imm
			}
		case isa.BGE:
			if int64(x) >= 0 {
				next = e.imm
			}
		case isa.BLE:
			if int64(x) <= 0 {
				next = e.imm
			}
		case isa.BGT:
			if int64(x) > 0 {
				next = e.imm
			}
		case isa.BR:
			next = e.imm
		case isa.JSR:
			next, res = e.imm, pc+1
		case isa.JMP:
			next = x
		case isa.HALT:
			m.halt, n = true, i+1
		case opEvent:
			// An observing table's load or control transfer: record
			// its event, then execute it. The event is written before
			// a load's call, so nothing but what the plain loads keep
			// is live across it, and the loop spills no more than it
			// does without this case.
			k := len(m.events)
			m.events = m.events[:k+1]
			if k+1 == cap(m.events) {
				n = i + 1
			}
			ev := &m.events[k]
			ev.PC, ev.Op = pc, e.orig
			if e.class == isa.ClassLoad {
				a := x + e.imm
				ev.Addr, ev.Taken = a, false
				if e.orig == isa.LDL {
					res = uint64(int64(int32(m.Mem.Load32(a))))
				} else {
					res = m.Mem.Load64(a)
				}
			} else {
				taken := takenMask[e.orig]>>signClass(x)&1 != 0
				if taken {
					next = e.imm
					if e.orig == isa.JMP {
						next = x
					}
				}
				ev.Addr, ev.Taken = next, taken
				// JSR's return address; the other control
				// transfers write the sink slot.
				res = pc + 1
			}
		}
		r[e.dst] = res
		pc = next
	}
	m.PC, m.seq = pc, m.seq+i
	return i
}
