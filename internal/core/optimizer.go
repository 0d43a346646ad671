package core

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/regfile"
)

// ratEntry is one row of the augmented register alias table: the
// architectural-to-physical mapping plus the symbolic value described in
// §3.1 of the paper.
//
// Reference discipline: the entry holds one reference on preg (the
// architectural mapping) and, when sym is symbolic, one reference on
// sym.Base (even when sym.Base == preg, for uniformity). Both drop when
// the entry is overwritten.
type ratEntry struct {
	preg regfile.PReg
	sym  SymVal
	// symOK marks integer registers; the paper's CP/RA table has one
	// entry per *integer* architectural register, so floating-point
	// entries keep a plain symbolic value forever.
	symOK bool
	// bundle/depth implement the per-bundle dependence-depth limit of
	// §6.2: depth is the number of chained additions this entry's
	// symbolic value cost within rename bundle `bundle`.
	bundle uint64
	depth  int
}

// Kind classifies what the optimizer decided for one instruction.
type Kind uint8

// Rename outcome kinds.
const (
	// KindNormal instructions execute in the out-of-order core.
	KindNormal Kind = iota
	// KindEarly instructions were fully executed in the optimizer; their
	// value is known at rename.
	KindEarly
	// KindElim instructions (collapsed moves, eliminated loads) never
	// execute; their destination aliases the producer's physical
	// register and becomes ready when the producer does.
	KindElim
)

// RenameResult tells the pipeline what to do with one renamed
// instruction.
//
// The result carries physical-register references owned by the dynamic
// instruction: one on Dest and one per entry of Deps. The pipeline must
// release them all when the instruction retires.
type RenameResult struct {
	// Kind classifies the outcome.
	Kind Kind
	// Dest is the destination physical register (NoPReg when the
	// instruction writes none). For KindElim it aliases the producer.
	Dest regfile.PReg
	// Deps are the physical registers whose readiness gates execution
	// (empty for KindEarly; the producer preg for KindElim).
	Deps []regfile.PReg
	// Value is the result computed in the optimizer (valid for KindEarly
	// with a destination).
	Value uint64
	// BranchResolved reports that a control instruction's outcome was
	// determined in the optimizer — the early-branch-resolution event
	// that shortens misprediction recovery.
	BranchResolved bool
	// AddrKnown reports that a memory instruction's effective address
	// was generated in the optimizer (the load can "proceed directly to
	// the data cache read port").
	AddrKnown bool
	// LoadEliminated reports RLE/SF converted the load into a move.
	LoadEliminated bool
	// ExecClass is the execution class after optimization (strength
	// reduction can turn a complex multiply into a simple shift).
	ExecClass isa.Class
}

// Optimizer is the continuous optimizer plus register renamer. One
// instance lives in (and is driven by) a pipeline's rename stage.
type Optimizer struct {
	cfg   Config
	prf   *regfile.File
	rat   [isa.NumRegs]ratEntry
	mbc   *mbc
	vals  []uint64 // oracle value per preg, for strict expression checking
	stats Stats

	// consumed marks pregs some later instruction depends on, and
	// tracked marks pregs allocated by Rename (initial-state mappings
	// are excluded), for the dead-value measurement (§2.3).
	consumed []bool
	tracked  []bool

	// ratBases[p] counts the RAT entries feedback can fold — integer
	// (symOK) entries whose symbolic value is expressed against preg p —
	// maintained by symRef/symUnref alongside the reference counts. The
	// count is exact, so Feedback skips the table scan when it is zero
	// (the common case on the steady-state path) and stops scanning once
	// it has folded that many entries.
	ratBases []uint32

	bundle       uint64
	bundleChains int // chained-memory ops used this bundle
}

// NewOptimizer builds an optimizer over the given physical register file.
// It allocates one physical register per architectural register for the
// initial (zero) mappings; the file must be large enough to leave
// headroom for the in-flight window.
func NewOptimizer(cfg Config, prf *regfile.File) *Optimizer {
	return NewOptimizerAt(cfg, prf, nil)
}

// NewOptimizerAt builds an optimizer whose initial architectural state
// is regs instead of the all-zero reset state — the seam checkpoint-
// seeded simulation needs: a restore writes the architectural registers
// through the pipeline, so their values are as known to the hardware as
// the reset zeros are. nil regs means reset state.
func NewOptimizerAt(cfg Config, prf *regfile.File, regs *[isa.NumRegs]uint64) *Optimizer {
	o := &Optimizer{prf: prf}
	o.ResetAt(cfg, regs)
	return o
}

// ResetAt returns the optimizer to exactly the state
// NewOptimizerAt(cfg, prf, regs) builds over its register file, which
// the caller must have reset (regfile.File.Reset) to the size the
// session needs. Its tables, the MBC included, are reused when large
// enough, so simulation can pool optimizers across sessions of any
// shape.
func (o *Optimizer) ResetAt(cfg Config, regs *[isa.NumRegs]uint64) {
	prf := o.prf
	n := prf.Size()
	o.cfg = cfg
	o.rat = [isa.NumRegs]ratEntry{}
	o.vals = regfile.Resize(o.vals, n)
	o.stats = Stats{}
	o.consumed = regfile.Resize(o.consumed, n)
	o.tracked = regfile.Resize(o.tracked, n)
	o.ratBases = regfile.Resize(o.ratBases, n)
	o.bundle, o.bundleChains = 1, 0
	if cfg.Mode == ModeFull {
		if o.mbc == nil {
			o.mbc = newMBC(cfg.MBCEntries, prf)
		} else {
			o.mbc.reset(cfg.MBCEntries, prf)
		}
	} else {
		o.mbc = nil
	}
	for r := 0; r < isa.NumRegs; r++ {
		reg := isa.Reg(r)
		if reg.IsZero() {
			o.rat[r].preg = regfile.NoPReg
			continue
		}
		p := prf.Alloc()
		if p == regfile.NoPReg {
			panic("core: register file too small for initial mappings")
		}
		var v uint64
		if regs != nil {
			v = regs[r]
		}
		prf.Write(p, v)
		o.vals[p] = v
		e := &o.rat[r]
		e.preg = p
		e.symOK = reg.IsInt()
		// The initial architectural state is known to the hardware —
		// zero at reset, the restored values at a checkpoint; seed
		// integer entries with the known constant.
		if e.symOK && cfg.Mode == ModeFull {
			e.sym = Const(v)
		} else {
			e.sym = Sym(p)
			o.symRef(e, p)
		}
	}
}

// symRef takes entry e's symbolic-base reference on p, keeping the
// base index in step with the reference counts.
func (o *Optimizer) symRef(e *ratEntry, p regfile.PReg) {
	if p == regfile.NoPReg {
		return
	}
	if e.symOK {
		o.ratBases[p]++
	}
	o.prf.AddRef(p)
}

// symUnref drops entry e's symbolic-base reference on p.
func (o *Optimizer) symUnref(e *ratEntry, p regfile.PReg) {
	if p == regfile.NoPReg {
		return
	}
	if e.symOK {
		o.ratBases[p]--
	}
	o.prf.Release(p)
}

// Stats returns the accumulated event counters.
func (o *Optimizer) Stats() *Stats { return &o.stats }

// Config returns the optimizer configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// BeginBundle starts a new rename bundle (one per rename cycle); the
// dependence-depth and chained-memory limits reset at bundle boundaries.
func (o *Optimizer) BeginBundle() {
	o.bundle++
	o.bundleChains = 0
}

// Feedback integrates a value produced by the execution units back into
// the optimization tables (§3.3): every RAT and MBC entry whose symbolic
// base is p becomes a known constant.
func (o *Optimizer) Feedback(p regfile.PReg, val uint64) {
	if o.cfg.Mode == ModeBaseline || p == regfile.NoPReg {
		return
	}
	// Discrete (offline) optimization has no real-time feedback path
	// back into the tables (§3.4).
	if o.cfg.DiscreteWindow > 0 {
		return
	}
	// The base index counts exactly the entries to fold: scan only
	// while some remain.
	if o.ratBases[p] > 0 {
		for r := range o.rat {
			e := &o.rat[r]
			if e.symOK && e.sym.HasBase() && e.sym.Base == p {
				e.sym = Const(e.sym.Eval(val))
				o.symUnref(e, p)
				o.stats.FeedbackApplied++
				if o.ratBases[p] == 0 {
					break
				}
			}
		}
	}
	if o.mbc != nil {
		o.stats.FeedbackApplied += o.mbc.feedback(p, val)
	}
}

// CanRename reports whether the register file has room to rename another
// instruction (at most one allocation per instruction).
func (o *Optimizer) CanRename() bool { return o.prf.CanAlloc(1) }

// source describes one resolved source operand.
type source struct {
	sym   SymVal
	preg  regfile.PReg
	depth int // chained-addition depth if produced in this bundle
}

func (o *Optimizer) srcOf(r isa.Reg) source {
	if r == isa.NoReg || r.IsZero() {
		return source{sym: Const(0), preg: regfile.NoPReg}
	}
	e := &o.rat[r]
	s := source{sym: e.sym, preg: e.preg}
	if e.bundle == o.bundle {
		s.depth = e.depth
	}
	return s
}

// optDepth returns the chained-addition depth an optimization consuming
// the symbolic values of sources a and b would have within this bundle;
// an absent operand is source{}.
func optDepth(a, b source) int { return max(a.depth, b.depth) + 1 }

// depthOK reports whether an optimization at the given depth fits the
// per-bundle addition budget (§6.2), counting refused attempts.
func (o *Optimizer) depthOK(depth int) bool {
	if depth > 1+o.cfg.DepDepth {
		o.stats.DepthLimited++
		return false
	}
	return true
}

func (o *Optimizer) verify(cond bool, d *emu.DynInst, what string) {
	if !cond {
		panic(fmt.Sprintf("core: optimizer verification failed (%s) at seq %d: %v",
			what, d.Seq, d.Inst))
	}
}

// setDest installs the destination mapping. newMapping must already hold
// the mapping reference (fresh Alloc) or be AddRef'd by the caller; sym
// base references are taken here.
func (o *Optimizer) setDest(r isa.Reg, p regfile.PReg, sym SymVal, depth int) {
	e := &o.rat[r]
	// Dead-value measurement: the previous mapping is being overwritten;
	// if nothing in the pipeline ever consumed it, the producing
	// instruction's result was dead (§2.3).
	if e.preg != regfile.NoPReg && e.preg != p && o.tracked[e.preg] && !o.consumed[e.preg] {
		o.stats.DeadValues++
	}
	if !e.symOK || o.cfg.Mode == ModeBaseline {
		sym = Sym(p)
	}
	// Take the new references before dropping the old ones: the new
	// symbolic base may be kept alive only by the entry being replaced
	// (e.g. `add r1, 1 -> r1` over a reassociated r1).
	if sym.HasBase() {
		o.symRef(e, sym.Base)
	}
	oldPreg, oldSym := e.preg, e.sym
	e.preg = p
	e.sym = sym
	e.bundle = o.bundle
	e.depth = depth
	o.prf.Release(oldPreg)
	if oldSym.HasBase() {
		o.symUnref(e, oldSym.Base)
	}
}

// allocDest allocates a fresh destination preg and records its oracle
// value for expression checking. The caller must have checked CanRename.
func (o *Optimizer) allocDest(val uint64) regfile.PReg {
	p := o.prf.Alloc()
	if p == regfile.NoPReg {
		panic("core: Rename called without CanRename check")
	}
	o.vals[p] = val
	o.consumed[p] = false
	o.tracked[p] = true
	o.stats.DeadCandidates++
	return p
}

// addDep appends p (with an in-flight reference) unless absent, marking
// the value live for the dead-value measurement.
func (o *Optimizer) addDep(deps []regfile.PReg, p regfile.PReg) []regfile.PReg {
	if p == regfile.NoPReg {
		return deps
	}
	o.prf.AddRef(p)
	o.consumed[p] = true
	return append(deps, p)
}

// Rename processes one dynamic instruction through the rename/optimize
// stage: it renames sources and destination, applies CP/RA and RLE/SF,
// decides early execution, and returns what the out-of-order core must
// still do. Instructions must be presented in program order; call
// BeginBundle at each rename-cycle boundary.
func (o *Optimizer) Rename(d *emu.DynInst) RenameResult {
	var res RenameResult
	o.RenameInto(d, &res)
	return res
}

// RenameInto is Rename writing its result into the caller-owned *res,
// whose previous contents it overwrites. The dependence list is built by
// appending to res.Deps[:0] (at most two entries per instruction), so a
// caller that points res.Deps at a recycled buffer — the pipeline's
// dynOp arena — renames with no heap allocation and no result copy.
func (o *Optimizer) RenameInto(d *emu.DynInst, res *RenameResult) {
	// Discrete (offline) optimization invalidates the tables at each
	// trace boundary (§3.4).
	if o.cfg.DiscreteWindow > 0 && o.stats.Renamed > 0 &&
		o.stats.Renamed%uint64(o.cfg.DiscreteWindow) == 0 {
		o.flushTables()
	}
	o.stats.Renamed++
	in := d.Inst
	*res = RenameResult{Dest: regfile.NoPReg, ExecClass: in.Op.Class(), Deps: res.Deps[:0]}

	switch in.Op.Class() {
	case isa.ClassNop, isa.ClassHalt:
		res.Kind = KindEarly // nothing for the core to execute
		return
	case isa.ClassBranch:
		o.renameBranch(d, res)
	case isa.ClassLoad:
		o.renameLoad(d, res)
	case isa.ClassStore:
		o.renameStore(d, res)
	default:
		o.renameALU(d, res)
	}

	// The instruction holds a reference on its destination until retire,
	// so no later overwrite of the architectural mapping can free it
	// while in flight.
	if res.Dest != regfile.NoPReg {
		o.prf.AddRef(res.Dest)
	}
	if res.Kind == KindEarly {
		o.stats.EarlyExecuted++
	}
}

// renameALU handles integer, floating-point and move operations.
func (o *Optimizer) renameALU(d *emu.DynInst, res *RenameResult) {
	in := d.Inst
	full := o.cfg.Mode == ModeFull
	allowEarly := o.cfg.Mode != ModeBaseline

	// Resolve operands. b is the immediate when present.
	var a, b source
	if in.Op == isa.LDI {
		a = source{sym: Const(uint64(in.Imm)), preg: regfile.NoPReg}
		b = source{sym: Const(0), preg: regfile.NoPReg}
	} else {
		a = o.srcOf(in.SrcA)
		if in.HasImm {
			b = source{sym: Const(uint64(in.Imm)), preg: regfile.NoPReg}
		} else {
			b = o.srcOf(in.SrcB)
		}
	}
	unary := in.Op == isa.LDI || in.Op == isa.MOV || in.Op == isa.FMOV ||
		in.Op == isa.FNEG || in.Op == isa.ITOF || in.Op == isa.FTOI

	dst, hasDest := in.WritesReg()

	// Verify known operands against the oracle (strict value checking).
	if allowEarly {
		o.verifyKnownOperands(d, a, b, unary)
	}

	op := in.Op
	execClass := op.Class()

	// Strength reduction: multiply by a power of two becomes a shift,
	// turning a complex-class op into a simple one (§2.1).
	if full && o.cfg.StrengthReduce && op == isa.MUL {
		if b.sym.Known && isPow2(b.sym.Off) {
			op, b.sym = isa.SLL, Const(log2(b.sym.Off))
			b.preg = regfile.NoPReg
			execClass = isa.ClassSimpleInt
			o.stats.StrengthReduced++
		} else if a.sym.Known && isPow2(a.sym.Off) {
			op, a, b = isa.SLL, b, source{sym: Const(log2(a.sym.Off)), preg: regfile.NoPReg}
			execClass = isa.ClassSimpleInt
			o.stats.StrengthReduced++
		}
	}
	res.ExecClass = execClass

	depth := optDepth(a, b)

	// Early execution: all inputs known and the (possibly strength-
	// reduced) operation is a one-cycle simple op.
	if allowEarly && execClass == isa.ClassSimpleInt && a.sym.Known && b.sym.Known &&
		o.depthOK(depth) {
		var v uint64
		if in.Op == isa.LDI {
			v = uint64(in.Imm)
		} else {
			v = emu.EvalALU(op, a.sym.Off, b.sym.Off)
		}
		o.verify(v == d.Result, d, "early-exec value")
		res.Kind = KindEarly
		res.Value = v
		if hasDest {
			res.Dest = o.allocDest(v)
			o.setDest(dst, res.Dest, Const(v), depth)
		}
		return
	}

	// Move collapsing: the destination maps onto the producer's physical
	// register; the move never executes (§2.1 "minor optimizations").
	if full && (in.Op == isa.MOV || in.Op == isa.FMOV) && hasDest && a.preg != regfile.NoPReg {
		if a.sym.HasBase() {
			o.verify(a.sym.Eval(o.vals[a.sym.Base]) == d.Result, d, "move collapse")
		}
		res.Kind = KindElim
		res.Dest = a.preg
		o.prf.AddRef(a.preg) // new architectural mapping reference
		res.Deps = o.addDep(res.Deps, a.preg)
		o.setDest(dst, a.preg, a.sym, a.depth)
		o.stats.MovesCollapsed++
		return
	}

	// Reassociation (full mode, integer destinations only).
	if full && hasDest && dst.IsInt() {
		if sym, ok := deriveSym(op, a.sym, b.sym); ok && sym.HasBase() && o.depthOK(depth) {
			o.verify(sym.Eval(o.vals[sym.Base]) == d.Result, d, "reassociation")
			res.Dest = o.allocDest(d.Result)
			o.setDest(dst, res.Dest, sym, depth)
			res.Deps = o.addDep(res.Deps, sym.Base)
			res.Kind = KindNormal
			o.stats.Reassociated++
			return
		}
	}

	// Plain rename. Constant propagation still folds known operands into
	// immediates, removing those dependences (integer operands only).
	res.Kind = KindNormal
	if !(allowEarly && a.sym.Known && (in.SrcA == isa.NoReg || in.SrcA.IsInt())) {
		res.Deps = o.addDep(res.Deps, a.preg)
	}
	if !unary && !(allowEarly && b.sym.Known && (in.HasImm || in.SrcB == isa.NoReg || in.SrcB.IsInt())) {
		res.Deps = o.addDep(res.Deps, b.preg)
	}
	if hasDest {
		res.Dest = o.allocDest(d.Result)
		o.setDest(dst, res.Dest, Sym(res.Dest), 0)
	}
}

// verifyKnownOperands checks every known source value against the oracle.
func (o *Optimizer) verifyKnownOperands(d *emu.DynInst, a, b source, unary bool) {
	idx := 0
	in := d.Inst
	if in.SrcA != isa.NoReg {
		if a.sym.Known && !in.SrcA.IsZero() {
			o.verify(a.sym.Off == d.SrcVals[idx], d, "known operand A")
		}
		idx++
	}
	if !unary && !in.HasImm && in.SrcB != isa.NoReg {
		if b.sym.Known && !in.SrcB.IsZero() {
			o.verify(b.sym.Off == d.SrcVals[idx], d, "known operand B")
		}
	}
}

// deriveSym computes the destination's symbolic value for CP/RA, when
// representable in (base << scale) + offset form.
func deriveSym(op isa.Op, a, b SymVal) (SymVal, bool) {
	switch op {
	case isa.ADD:
		if b.Known {
			return a.AddConst(b.Off), true
		}
		if a.Known {
			return b.AddConst(a.Off), true
		}
	case isa.SUB:
		if b.Known {
			return a.AddConst(-b.Off), true
		}
	case isa.SLL:
		if b.Known {
			return a.ShiftLeft(b.Off & 63)
		}
	case isa.MOV:
		return a, true
	}
	return SymVal{}, false
}

// renameBranch handles control transfers, including early resolution and
// branch-direction value inference.
func (o *Optimizer) renameBranch(d *emu.DynInst, res *RenameResult) {
	in := d.Inst
	allowEarly := o.cfg.Mode != ModeBaseline

	switch {
	case in.Op.IsCondBranch():
		a := o.srcOf(in.SrcA)
		if allowEarly && a.sym.Known && o.depthOK(optDepth(a, source{})) {
			o.verify(emu.BranchTaken(in.Op, a.sym.Off) == d.Taken, d, "branch resolution")
			res.Kind = KindEarly
			res.BranchResolved = true
			o.stats.BranchesResolved++
			return
		}
		res.Kind = KindNormal
		res.Deps = o.addDep(res.Deps, a.preg)
		// Inference: a taken beq (or fall-through bne) pins the register
		// to exactly zero. Safe because wrong-path state is squashed on
		// misprediction (§2.1).
		if o.cfg.Mode == ModeFull && o.cfg.BranchInference &&
			in.SrcA.Valid() && !in.SrcA.IsZero() && in.SrcA.IsInt() {
			zero := (in.Op == isa.BEQ && d.Taken) || (in.Op == isa.BNE && !d.Taken)
			if zero && !a.sym.Known {
				e := &o.rat[in.SrcA]
				if e.sym.HasBase() {
					o.symUnref(e, e.sym.Base)
				}
				e.sym = Const(0)
				o.stats.Inferences++
			}
		}

	case in.Op == isa.BR:
		// Target is static; nothing to compute. The optimizer resolves
		// it trivially, redirecting any BTB miss at rename.
		if allowEarly {
			res.Kind = KindEarly
			res.BranchResolved = true
			o.stats.BranchesResolved++
		}

	case in.Op == isa.JSR:
		// The link value pc+1 is a constant; the target is static.
		if allowEarly {
			v := d.PC + 1
			o.verify(v == d.Result, d, "jsr link")
			res.Kind = KindEarly
			res.Value = v
			res.BranchResolved = true
			o.stats.BranchesResolved++
			if dst, ok := in.WritesReg(); ok {
				res.Dest = o.allocDest(v)
				o.setDest(dst, res.Dest, Const(v), 1)
			}
			return
		}
		if dst, ok := in.WritesReg(); ok {
			res.Dest = o.allocDest(d.Result)
			o.setDest(dst, res.Dest, Sym(res.Dest), 0)
		}

	case in.Op == isa.JMP:
		a := o.srcOf(in.SrcA)
		if allowEarly && a.sym.Known && o.depthOK(optDepth(a, source{})) {
			o.verify(a.sym.Off == d.NextPC, d, "jmp target")
			res.Kind = KindEarly
			res.BranchResolved = true
			o.stats.BranchesResolved++
			return
		}
		res.Kind = KindNormal
		res.Deps = o.addDep(res.Deps, a.preg)
	}
}

// renameLoad handles LDQ/FLDQ: address generation in the optimizer and
// redundant load elimination / store forwarding via the MBC.
func (o *Optimizer) renameLoad(d *emu.DynInst, res *RenameResult) {
	in := d.Inst
	o.stats.MemOps++
	o.stats.Loads++
	dst, hasDest := in.WritesReg()
	base := o.srcOf(in.SrcA)

	addrKnown := false
	if o.cfg.Mode == ModeFull && base.sym.Known && o.depthOK(optDepth(base, source{})) {
		addr := base.sym.Off + uint64(in.Imm)
		o.verify(addr == d.Addr, d, "load address")
		addrKnown = true
		o.stats.AddrKnown++
		res.AddrKnown = true
	}

	// RLE/SF: look for the datum in the Memory Bypass Cache.
	if addrKnown && o.mbc != nil {
		if e := o.mbc.lookup(d.Addr, in.Op.MemBytes()); e != nil {
			switch {
			case e.bundle == o.bundle && o.bundleChains >= o.cfg.ChainedMem:
				// Dependence on same-bundle MBC state exceeds the
				// chained-memory budget (§3.2, §6.2).
				o.stats.ChainLimited++
			case e.oracle != d.Result:
				// An unknown-address store clobbered this location; the
				// verification stage squashes the forward (speculate-and-
				// recover policy, modeled as a miss).
				o.stats.MBCStale++
				o.mbc.invalidate(e)
			default:
				if e.bundle == o.bundle {
					o.bundleChains++
				}
				o.stats.MBCHits++
				o.stats.LoadsRemoved++
				res.LoadEliminated = true
				if !hasDest { // load to zero register
					res.Kind = KindEarly
					return
				}
				if e.sym.Known || e.preg == regfile.NoPReg {
					// Datum already known: behaves like early execution.
					o.verify(e.oracle == d.Result, d, "forwarded value")
					res.Kind = KindEarly
					res.Value = e.oracle
					res.Dest = o.allocDest(e.oracle)
					o.setDest(dst, res.Dest, Const(e.oracle), 1)
				} else {
					// Converted to a move of the producer's preg, then
					// collapsed: the destination aliases the producer.
					res.Kind = KindElim
					res.Dest = e.preg
					o.prf.AddRef(e.preg)
					res.Deps = o.addDep(res.Deps, e.preg)
					o.setDest(dst, e.preg, e.sym, 1)
				}
				return
			}
		}
	}

	// Ordinary load: executes in the core. A known address skips address
	// generation (no base dependence); otherwise it waits on the base.
	res.Kind = KindNormal
	if !addrKnown {
		res.Deps = o.addDep(res.Deps, base.preg)
	}
	if hasDest {
		res.Dest = o.allocDest(d.Result)
		o.setDest(dst, res.Dest, Sym(res.Dest), 0)
		if addrKnown && o.mbc != nil {
			// Remember the destination so a future load of this address
			// can be eliminated (RLE).
			o.mbc.install(d.Addr, in.Op.MemBytes(), res.Dest, Sym(res.Dest), d.Result, o.bundle)
		}
	}
}

// renameStore handles STQ/FSTQ: address generation and MBC installation
// for store forwarding.
func (o *Optimizer) renameStore(d *emu.DynInst, res *RenameResult) {
	in := d.Inst
	o.stats.MemOps++
	base := o.srcOf(in.SrcA)
	data := o.srcOf(in.SrcB)
	res.Kind = KindNormal

	addrKnown := false
	if o.cfg.Mode == ModeFull && base.sym.Known && o.depthOK(optDepth(base, source{})) {
		addr := base.sym.Off + uint64(in.Imm)
		o.verify(addr == d.Addr, d, "store address")
		addrKnown = true
		o.stats.AddrKnown++
		res.AddrKnown = true
	}

	if !addrKnown {
		res.Deps = o.addDep(res.Deps, base.preg)
	}
	// The store needs its datum before it completes, unless the value is
	// already a known constant.
	if !(o.cfg.Mode != ModeBaseline && data.sym.Known) {
		res.Deps = o.addDep(res.Deps, data.preg)
	}

	if o.mbc != nil {
		if addrKnown {
			sym := data.sym
			if !in.SrcB.IsInt() && !sym.Known {
				sym = Sym(data.preg) // FP data carries no symbolic form
			}
			// The entry's oracle is the data REGISTER's full value (what
			// the forwarded preg will hold), not the possibly-truncated
			// memory image: forwarding is valid only when they agree,
			// which the load-side check enforces.
			oracle := d.StoreVal
			if _, n := in.Sources(); n > 1 {
				oracle = d.SrcVals[1]
			}
			o.mbc.install(d.Addr, in.Op.MemBytes(), data.preg, sym, oracle, o.bundle)
		} else if o.cfg.StorePolicy == StoreFlush {
			o.mbc.flush()
			o.stats.MBCFlushes++
		}
	}
}

// flushTables forgets all symbolic knowledge (trace boundary in discrete
// mode): every RAT entry reverts to a plain mapping and the MBC empties.
// Architectural mappings are untouched — only optimization state resets.
func (o *Optimizer) flushTables() {
	for r := range o.rat {
		e := &o.rat[r]
		if e.preg == regfile.NoPReg {
			continue
		}
		if e.sym.HasBase() {
			o.symUnref(e, e.sym.Base)
		}
		e.sym = Sym(e.preg)
		o.symRef(e, e.preg)
		e.bundle, e.depth = 0, 0
	}
	if o.mbc != nil {
		o.mbc.flush()
	}
	o.stats.TraceFlushes++
}

// ReleaseAll drops every reference the optimizer tables hold (RAT
// mappings, symbolic bases, MBC entries). Used at end of simulation so
// leak checks can require LiveCount == 0.
func (o *Optimizer) ReleaseAll() {
	for r := range o.rat {
		e := &o.rat[r]
		if e.preg != regfile.NoPReg {
			o.prf.Release(e.preg)
			if e.sym.HasBase() {
				o.symUnref(e, e.sym.Base)
			}
			e.preg = regfile.NoPReg
			e.sym = SymVal{}
		}
	}
	if o.mbc != nil {
		o.mbc.flush()
	}
}

// Mapping returns the current physical register mapped to architectural
// register r (NoPReg for the hardwired zeros).
func (o *Optimizer) Mapping(r isa.Reg) regfile.PReg {
	if !r.Valid() || r.IsZero() {
		return regfile.NoPReg
	}
	return o.rat[r].preg
}

// SymOf returns the current symbolic value of architectural register r.
func (o *Optimizer) SymOf(r isa.Reg) SymVal {
	if !r.Valid() || r.IsZero() {
		return Const(0)
	}
	return o.rat[r].sym
}

// MBCLive returns the number of valid MBC entries (tests only).
func (o *Optimizer) MBCLive() int {
	if o.mbc == nil {
		return 0
	}
	return o.mbc.liveEntries()
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

func log2(v uint64) uint64 {
	n := uint64(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
