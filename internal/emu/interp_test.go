package emu_test

// Equivalence tests for the predecoded interpreter. refMachine below is
// the reference stepper: the emulator's semantics interpreted straight
// from isa.Inst (a class switch, then EvalALU or BranchTaken, with the
// hardwired zeros checked on every register access). Every way the
// package executes a program — Run, Step, StepInto, RunEvents and
// Record — must produce its records, events and end states exactly.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

type refMachine struct {
	prog *emu.Program
	regs [isa.NumRegs]uint64
	mem  *mem.Memory
	pc   uint64
	seq  uint64
	halt bool
}

func newRef(p *emu.Program) *refMachine {
	return &refMachine{prog: p, mem: p.NewMemory(), pc: p.Entry}
}

func (m *refMachine) reg(r isa.Reg) uint64 {
	if r.IsZero() || !r.Valid() {
		return 0
	}
	return m.regs[r]
}

func (m *refMachine) setReg(r isa.Reg, v uint64) {
	if r == isa.NoReg || r.IsZero() {
		return
	}
	m.regs[r] = v
}

// step executes one instruction into d; the machine must not be halted.
func (m *refMachine) step(d *emu.DynInst) {
	if m.pc >= uint64(len(m.prog.Code)) {
		panic(fmt.Sprintf("emu: PC %d outside program %q (len %d)", m.pc, m.prog.Name, len(m.prog.Code)))
	}
	in := &m.prog.Code[m.pc]
	*d = emu.DynInst{Seq: m.seq, PC: m.pc, Inst: in}
	m.seq++

	srcs, n := in.Sources()
	for i := 0; i < n; i++ {
		d.SrcVals[i] = m.reg(srcs[i])
	}

	next := m.pc + 1
	switch in.Op.Class() {
	case isa.ClassNop:
	case isa.ClassSimpleInt, isa.ClassComplexInt, isa.ClassFP:
		a := m.reg(in.SrcA)
		var b uint64
		if in.Op == isa.LDI {
			a = uint64(in.Imm)
		} else if in.HasImm {
			b = uint64(in.Imm)
		} else {
			b = m.reg(in.SrcB)
		}
		d.Result = emu.EvalALU(in.Op, a, b)
		m.setReg(in.Dst, d.Result)
	case isa.ClassLoad:
		d.Addr = m.reg(in.SrcA) + uint64(in.Imm)
		if in.Op == isa.LDL {
			d.Result = uint64(int64(int32(m.mem.Load32(d.Addr))))
		} else {
			d.Result = m.mem.Load64(d.Addr)
		}
		m.setReg(in.Dst, d.Result)
	case isa.ClassStore:
		d.Addr = m.reg(in.SrcA) + uint64(in.Imm)
		d.StoreVal = m.reg(in.SrcB)
		if in.Op == isa.STL {
			d.StoreVal = uint64(uint32(d.StoreVal))
			m.mem.Store32(d.Addr, uint32(d.StoreVal))
		} else {
			m.mem.Store64(d.Addr, d.StoreVal)
		}
	case isa.ClassBranch:
		switch {
		case in.Op.IsCondBranch():
			d.Taken = emu.BranchTaken(in.Op, m.reg(in.SrcA))
			if d.Taken {
				next = uint64(in.Imm)
			}
		case in.Op == isa.BR:
			d.Taken = true
			next = uint64(in.Imm)
		case in.Op == isa.JSR:
			d.Taken = true
			d.Result = m.pc + 1
			m.setReg(in.Dst, d.Result)
			next = uint64(in.Imm)
		case in.Op == isa.JMP:
			d.Taken = true
			next = m.reg(in.SrcA)
		}
	case isa.ClassHalt:
		d.Halt = true
		m.halt = true
	}
	m.pc = next
	d.NextPC = next
}

// refStream yields the reference records of p one at a time.
type refStream struct {
	t *testing.T
	m *refMachine
}

func (s *refStream) next(label string, got *emu.DynInst) {
	s.t.Helper()
	if s.m.halt {
		s.t.Fatalf("%s: decoded machine ran past the reference HALT (record %+v)", label, *got)
	}
	var want emu.DynInst
	s.m.step(&want)
	if *got != want {
		s.t.Fatalf("%s: dynamic instruction %d differs:\n got %+v\nwant %+v", label, want.Seq, *got, want)
	}
}

// sameEndState compares the decoded machine's architectural state with
// the reference's: registers, memory, PC, instruction count, halt.
func sameEndState(t *testing.T, label string, m *emu.Machine, ref *refMachine) {
	t.Helper()
	if m.PC != ref.pc || m.InstCount() != ref.seq || m.Halted() != ref.halt {
		t.Fatalf("%s: PC/count/halt (%d,%d,%v), reference (%d,%d,%v)",
			label, m.PC, m.InstCount(), m.Halted(), ref.pc, ref.seq, ref.halt)
	}
	if m.Regs() != ref.regs {
		t.Fatalf("%s: register files differ:\n got %x\nwant %x", label, m.Regs(), ref.regs)
	}
	if !m.Mem.Equal(ref.mem) {
		t.Fatalf("%s: memory images differ", label)
	}
}

// checkEquivalent drives p to HALT (at most max instructions) through
// every execution path and compares each against the reference stepper.
func checkEquivalent(t *testing.T, p *emu.Program, max uint64) {
	t.Helper()
	name := p.Name

	// Run: end state only.
	ref := newRef(p)
	for !ref.halt && ref.seq < max {
		var d emu.DynInst
		ref.step(&d)
	}
	if !ref.halt {
		t.Fatalf("%s: reference did not halt within %d instructions", name, max)
	}
	m := emu.New(p)
	if n := m.Run(0); n != ref.seq {
		t.Fatalf("%s: Run executed %d instructions, reference %d", name, n, ref.seq)
	}
	sameEndState(t, name+" Run", m, ref)

	// Step and StepInto, interleaved, record by record.
	s := &refStream{t, newRef(p)}
	m = emu.New(p)
	var d emu.DynInst
	for i := 0; ; i++ {
		if i%2 == 0 {
			got := m.Step()
			if got == nil {
				break
			}
			s.next(name+" Step", got)
		} else {
			if !m.StepInto(&d) {
				break
			}
			s.next(name+" StepInto", &d)
		}
	}
	sameEndState(t, name+" Step", m, s.m)

	// RunEvents in uneven batches with a small buffer, so batches end
	// mid-stream, on the event that fills the buffer, and at HALT; each
	// batch's events are the reference's loads and control transfers.
	ref = newRef(p)
	m = emu.New(p)
	buf := make([]emu.Event, 0, 7)
	for !m.Halted() {
		n, evs := m.RunEvents(997, buf[:0])
		if n == 0 {
			t.Fatalf("%s: RunEvents ran nothing at instruction %d", name, m.InstCount())
		}
		var want []emu.Event
		var last bool
		for j := uint64(0); j < n; j++ {
			var d emu.DynInst
			ref.step(&d)
			var ev emu.Event
			if ev, last = eventOf(&d); last {
				want = append(want, ev)
			}
		}
		if !slices.Equal(evs, want) {
			t.Fatalf("%s: RunEvents batch ending at instruction %d: events %v, want %v", name, m.InstCount(), evs, want)
		}
		if full := len(evs) == cap(evs); !m.Halted() && n < 997 && (!full || !last) {
			t.Fatalf("%s: RunEvents batch of %d stopped at instruction %d with %d events", name, n, m.InstCount(), len(evs))
		}
	}
	sameEndState(t, name+" RunEvents", m, ref)

	// Record: the whole stream at once.
	tr, err := emu.Record(context.Background(), p, 0)
	if err != nil {
		t.Fatalf("%s: Record: %v", name, err)
	}
	s = &refStream{t, newRef(p)}
	for i := range tr.Insts {
		s.next(name+" Record", &tr.Insts[i])
	}
	if !s.m.halt {
		t.Fatalf("%s: Record stopped after %d records, before the reference HALT", name, len(tr.Insts))
	}
}

// TestDecodedMatchesReferenceBuiltins checks all 22 built-in workloads.
func TestDecodedMatchesReferenceBuiltins(t *testing.T) {
	all := workloads.All()
	if len(all) != 22 {
		t.Fatalf("%d built-in workloads, want 22", len(all))
	}
	for _, b := range all {
		checkEquivalent(t, b.Program(1), 1<<26)
	}
}

// TestDecodedMatchesReferenceScenarios checks every generated-workload
// family over 20 seeds at its knob defaults.
func TestDecodedMatchesReferenceScenarios(t *testing.T) {
	for _, fam := range scenario.FamilyNames() {
		for seed := uint64(1); seed <= 20; seed++ {
			spec := &scenario.Spec{Seed: seed, Scenarios: []scenario.ScenarioSpec{{Family: fam}}}
			scens, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			sc := scens[0]
			p, err := asm.Assemble(fmt.Sprintf("%s-%d", sc.Name, seed), sc.Source(1))
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, p, sc.InstCap(1))
		}
	}
}

// edgeValues are the operand values every opcode is checked on: the
// integer extremes, shift counts at and past the 64-bit width, zero
// divisors, and IEEE specials (NaN, infinities, negative zero, which is
// also MinInt64's bit pattern).
var edgeValues = []uint64{
	0, 1, math.MaxUint64, 1 << 63, math.MaxInt64, 2, 63, 64, 65, 127, 1 << 32, 0x80000000, 0xffffffff,
	math.Float64bits(math.NaN()), 0x7ff0000000000001, math.Float64bits(math.Inf(1)),
	math.Float64bits(math.Inf(-1)), math.Float64bits(1.5), math.Float64bits(-2.5), math.Float64bits(1e300),
}

const edgeData = 0x1000

// edgeProgram loads a into r1 and b into r2 from the data segment, runs
// body (which may use both) and halts.
func edgeProgram(name string, a, b uint64, body ...isa.Inst) *emu.Program {
	r := isa.IntReg
	data := make([]byte, 16)
	for i := 0; i < 8; i++ {
		data[i] = byte(a >> (8 * i))
		data[8+i] = byte(b >> (8 * i))
	}
	code := []isa.Inst{
		{Op: isa.LDQ, Dst: r(1), SrcA: isa.ZeroReg, SrcB: isa.NoReg, Imm: edgeData, HasImm: true},
		{Op: isa.LDQ, Dst: r(2), SrcA: isa.ZeroReg, SrcB: isa.NoReg, Imm: edgeData + 8, HasImm: true},
	}
	code = append(code, body...)
	code = append(code, isa.Inst{Op: isa.HALT, Dst: isa.NoReg, SrcA: isa.NoReg, SrcB: isa.NoReg})
	return &emu.Program{Name: name, Code: code, Data: []emu.Segment{{Addr: edgeData, Bytes: data}}}
}

// TestOpcodeEdgeValues runs every opcode on every pair of edge values.
// ALU results must equal EvalALU in both the register and the
// immediate form (and LDI must load its immediate), conditional
// branches must resolve as BranchTaken does, and every record and end
// state must match the reference stepper.
func TestOpcodeEdgeValues(t *testing.T) {
	r := isa.IntReg
	none := isa.NoReg
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		for _, a := range edgeValues {
			for _, b := range edgeValues {
				name := fmt.Sprintf("%v(%#x,%#x)", op, a, b)
				var body []isa.Inst
				switch c := op.Class(); {
				case c == isa.ClassSimpleInt || c == isa.ClassComplexInt || c == isa.ClassFP:
					body = []isa.Inst{
						{Op: op, Dst: r(3), SrcA: r(1), SrcB: r(2)},
						{Op: op, Dst: r(4), SrcA: r(1), SrcB: none, Imm: int64(b), HasImm: true},
					}
				case op.IsCondBranch():
					body = []isa.Inst{
						{Op: op, Dst: none, SrcA: r(1), SrcB: none, Imm: 4, HasImm: true},
						{Op: isa.LDI, Dst: r(5), SrcA: none, SrcB: none, Imm: 1, HasImm: true},
					}
				case op.IsLoad():
					// a, then b (or b's high half for 4-byte loads).
					off := int64(8 + 8 - op.MemBytes())
					body = []isa.Inst{
						{Op: isa.LDI, Dst: r(6), SrcA: none, SrcB: none, Imm: edgeData, HasImm: true},
						{Op: op, Dst: r(3), SrcA: r(6), SrcB: none, Imm: 0, HasImm: true},
						{Op: op, Dst: r(4), SrcA: r(6), SrcB: none, Imm: off, HasImm: true},
					}
				case op.IsStore():
					// a and b stored past the data, then read back whole.
					body = []isa.Inst{
						{Op: isa.LDI, Dst: r(6), SrcA: none, SrcB: none, Imm: edgeData + 16, HasImm: true},
						{Op: op, Dst: none, SrcA: r(6), SrcB: r(1), Imm: 0, HasImm: true},
						{Op: op, Dst: none, SrcA: r(6), SrcB: r(2), Imm: 8, HasImm: true},
						{Op: isa.LDQ, Dst: r(7), SrcA: r(6), SrcB: none, Imm: 0, HasImm: true},
						{Op: isa.LDQ, Dst: r(8), SrcA: r(6), SrcB: none, Imm: 8, HasImm: true},
					}
				case op == isa.JMP:
					body = []isa.Inst{
						{Op: isa.LDI, Dst: r(6), SrcA: none, SrcB: none, Imm: 5, HasImm: true},
						{Op: op, Dst: none, SrcA: r(6), SrcB: none},
						{Op: isa.LDI, Dst: r(5), SrcA: none, SrcB: none, Imm: 1, HasImm: true},
					}
				case op == isa.BR || op == isa.JSR:
					body = []isa.Inst{
						{Op: op, Dst: r(26), SrcA: none, SrcB: none, Imm: 4, HasImm: true},
						{Op: isa.LDI, Dst: r(5), SrcA: none, SrcB: none, Imm: 1, HasImm: true},
					}
				default: // NOP, HALT, and the zero-register write rules
					body = []isa.Inst{
						{Op: op, Dst: none, SrcA: none, SrcB: none},
						{Op: isa.ADD, Dst: isa.ZeroReg, SrcA: r(1), SrcB: r(2)},
						{Op: isa.ADD, Dst: r(3), SrcA: isa.ZeroReg, SrcB: isa.FZeroReg},
					}
				}
				p := edgeProgram(name, a, b, body...)
				checkEquivalent(t, p, 100)

				m := emu.New(p)
				m.Run(0)
				switch c := op.Class(); {
				case c == isa.ClassSimpleInt || c == isa.ClassComplexInt || c == isa.ClassFP:
					want, wantImm := emu.EvalALU(op, a, b), emu.EvalALU(op, a, b)
					if op == isa.LDI {
						want, wantImm = 0, b // reg form has no immediate
					}
					if got := m.Reg(r(3)); got != want {
						t.Errorf("%s register form = %#x, want %#x", name, got, want)
					}
					if got := m.Reg(r(4)); got != wantImm {
						t.Errorf("%s immediate form = %#x, want %#x", name, got, wantImm)
					}
				case op.IsCondBranch():
					if taken := m.Reg(r(5)) == 0; taken != emu.BranchTaken(op, a) {
						t.Errorf("%s taken = %v, want %v", name, taken, emu.BranchTaken(op, a))
					}
				}
			}
		}
	}
}

// TestPanicMessages pins the interpreter's two fault messages.
func TestPanicMessages(t *testing.T) {
	catch := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	off := &emu.Program{Name: "off", Code: []isa.Inst{{Op: isa.NOP}}}
	m := emu.New(off)
	if got, want := catch(func() { m.Run(0) }), `emu: PC 1 outside program "off" (len 1)`; got != want {
		t.Errorf("PC out of range: panic %v, want %q", got, want)
	}
	mis := &emu.Program{Name: "mis", Code: []isa.Inst{
		{Op: isa.LDQ, Dst: isa.IntReg(1), SrcA: isa.ZeroReg, SrcB: isa.NoReg, Imm: 0x13, HasImm: true},
	}}
	m = emu.New(mis)
	if got, want := catch(func() { m.Step() }), "mem: misaligned 8-byte access at 0x13"; got != want {
		t.Errorf("misaligned load: panic %v, want %q", got, want)
	}
}

// TestRestoreAfterEventsPanic: a RunEvents that panics leaves the
// machine on its observing table with the caller's buffer; Restore must
// take both back, so the restored machine records no event into a
// buffer it no longer owns.
func TestRestoreAfterEventsPanic(t *testing.T) {
	// A load, then a fall off the end of the program.
	p := &emu.Program{Name: "fall", Code: []isa.Inst{
		{Op: isa.LDQ, Dst: isa.IntReg(1), SrcA: isa.ZeroReg, SrcB: isa.NoReg, Imm: 8, HasImm: true},
		{Op: isa.NOP},
	}}
	m := emu.New(p)
	start := m.Snapshot()
	buf := make([]emu.Event, 0, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunEvents past the end of the program did not panic")
			}
		}()
		m.RunEvents(0, buf)
	}()
	m.Restore(start)
	if n := m.Run(1); n != 1 {
		t.Fatalf("restored machine ran %d instructions, want 1", n)
	}
	if got := buf[:2]; got[1] != (emu.Event{}) {
		t.Fatalf("restored machine's Run recorded an event into the old buffer: %v", got)
	}
	m.Restore(start)
	_, evs := m.RunEvents(1, make([]emu.Event, 0, 1))
	if want := []emu.Event{{PC: 0, Addr: 8, Op: isa.LDQ}}; !slices.Equal(evs, want) {
		t.Fatalf("RunEvents after Restore recorded %v, want %v", evs, want)
	}
}
