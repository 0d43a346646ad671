package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/regfile"
)

// notReady marks a physical register whose value has no completion time
// yet.
const notReady = ^uint64(0)

// schedClass indexes the four schedulers of Table 2.
type schedClass int

const (
	schedInt schedClass = iota // simple integer + branches
	schedComplex
	schedFP
	schedMem
	numScheds
)

func schedOf(c isa.Class) schedClass {
	switch c {
	case isa.ClassComplexInt:
		return schedComplex
	case isa.ClassFP:
		return schedFP
	case isa.ClassLoad, isa.ClassStore:
		return schedMem
	default:
		return schedInt
	}
}

// opRef names one in-flight op by its index in the session's arena.
// The pipeline queues, schedulers, event wheel, and dependence links
// all hold opRefs instead of *dynOp pointers: the arena slab is the
// only place ops live, references are 4-byte integer stores with no GC
// write barrier, and ops stay contiguous in memory.
type opRef int32

// noOp is the absent op reference.
const noOp opRef = -1

// dynOp is one in-flight dynamic instruction. Ops live in a
// session-owned arena: fetch takes one from the free list (growing the
// arena only while the in-flight population is still ramping) and
// retire recycles it, so the steady-state loop creates no garbage. The
// dynamic record d and the dependence buffer depbuf are embedded so
// they recycle with the op.
type dynOp struct {
	d   emu.DynInst
	res core.RenameResult

	// depbuf backs res.Deps (at most two dependences per instruction);
	// rename appends into it via Optimizer.RenameInto, so dependence
	// lists cost no allocation.
	depbuf [2]regfile.PReg

	// gen counts recycles of this arena slot. A holder of a possibly
	// stale *dynOp (a load's memDep) captures the generation alongside
	// the pointer; a mismatch means the op has retired since.
	gen uint32

	frontReadyAt uint64 // cycle the op reaches the rename stage
	renameDoneAt uint64
	dispatchedAt uint64
	doneAt       uint64 // execution completion (notReady until issued)
	sched        schedClass
	issued       bool

	mispredicted  bool // the front end guessed this branch wrong
	stallsFetch   bool // fetch is stalled waiting for this branch
	resolvedEarly bool // the optimizer resolved it at rename
	decodeHandled bool // static-target BTB miss repaired at decode

	// memDep is the youngest older in-flight store to this load's
	// address; the load forwards from it and cannot begin executing
	// before the store's data is ready (store-to-load forwarding with
	// perfect memory disambiguation). memDepGen is the store's
	// generation at capture: once the store retires (and its slot is
	// recycled) the generations diverge, which canIssue reads as "the
	// dependence is long satisfied" — exactly the timing the retired
	// store's frozen doneAt would have produced.
	memDep    opRef
	memDepGen uint32
}

// completed reports whether the op's result (if any) is available at
// cycle now, i.e. the op may retire.
func (op *dynOp) completed(now uint64, ready []uint64) bool {
	switch op.res.Kind {
	case core.KindEarly:
		return op.renameDoneAt <= now
	case core.KindElim:
		// The destination aliases the producer; ready when it is.
		return ready[op.res.Dest] <= now
	default:
		return op.doneAt != notReady && op.doneAt <= now
	}
}

// Session is one machine instance bound to one program: the unit of
// execution of the redesigned API. Build one with New, then drive it
// with Run, which takes a context for cancellation and RunOpts for
// limits and interval telemetry. A Session is single-use (Run consumes
// it) and not safe for concurrent use.
type Session struct {
	cfg Config
	src Source

	// backEnd holds the pooled structures the cycle stages work on —
	// register file, optimizer, queues, wheels, arena — embedded by
	// value so the stages reach them directly. be is the pool box it
	// was taken from; Run copies it back and returns it to the pool.
	backEnd
	be *backEnd

	// fe is the session's pooled front-end; bp and caches alias its
	// structures for the cycle stages. Run returns fe to the pool and
	// clears all three.
	fe     *frontEnd
	bp     *bpred.Predictor
	caches *cache.Hierarchy

	cycle uint64

	// renQCap bounds renQ (it must cover the rename+dispatch latency
	// at full width or it throttles throughput below the machine
	// width); precomputed so rename does no arithmetic per cycle.
	renQCap int

	windowOccSum uint64
	schedOccSum  uint64

	fetchResumeAt  uint64 // fetch stalled until this cycle (notReady = until resolve)
	fetchBlockedAt uint64 // I-cache miss in progress
	stalling       opRef  // noOp when fetch is not stalled on a branch
	fetchDone      bool
	fetched        uint64
	lastLine       uint64
	lineB          uint64 // L1I line size, hoisted out of the fetch loop
	l1iLat         uint64 // L1I hit latency, ditto

	res Result

	// consumed flips when Run starts; a Session is single-use.
	consumed bool
	// liveRegs is the live register count once Run has returned the
	// back-end to the pool.
	liveRegs int

	// onRetire, when set, observes every retirement (testing hook).
	onRetire func(op *dynOp, cycle uint64)
	// onRelease, when set, runs at the end of Run, just before the
	// back-end returns to the pool (testing hook).
	onRelease func()
}

type feedbackEv struct {
	preg regfile.PReg
	val  uint64
}

// New builds a simulation session for prog under cfg. The config is
// normalized (a zero Config means the default machine) and validated;
// an invalid config is reported as an error rather than a panic.
func New(cfg Config, prog *emu.Program) (*Session, error) {
	return newSession(cfg, prog, emu.New(prog), nil)
}

// NewFromCheckpoint builds a session whose oracle resumes prog at the
// architectural checkpoint ck (taken with emu.Machine.Snapshot) instead
// of the program entry point: the detailed model executes only the
// instructions from ck.InstCount onward, starting with cold caches,
// predictor, and optimizer tables. This is the seam sampled simulation
// is built on — fast-forward functionally, then run a short detailed
// window from the checkpoint (RunOpts.MaxRetired bounds the window,
// RunOpts.WarmupRetired discards the cold-start prefix from the
// measured statistics). Result.StartInst records the offset.
//
// The checkpoint is not consumed: its memory image is shared
// copy-on-write, so one checkpoint can seed any number of sessions (e.g.
// the same window on several machine configurations).
func NewFromCheckpoint(cfg Config, prog *emu.Program, ck *emu.Checkpoint) (*Session, error) {
	if ck == nil {
		return nil, fmt.Errorf("pipeline: nil checkpoint")
	}
	if ck.Program != prog.Name {
		return nil, fmt.Errorf("pipeline: checkpoint of %q cannot seed program %q", ck.Program, prog.Name)
	}
	if ck.Halted {
		return nil, fmt.Errorf("pipeline: checkpoint of %q is already halted", ck.Program)
	}
	return newSession(cfg, prog, emu.NewAt(prog, ck), nil)
}

// newSession builds a session over the dynamic-stream source src. A
// live emulator may stand anywhere in its run: the session resumes it
// there, with the rename tables seeded from its registers and
// Result.StartInst from its instruction count. A trace replay cursor
// always covers the whole recorded stream. fe is warmed front-end
// state the session takes over (from Warmer.Seed); nil takes a cold
// one from the pool. Either way Run returns it to the pool.
func newSession(cfg Config, prog *emu.Program, src Source, fe *frontEnd) (*Session, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var initRegs *[isa.NumRegs]uint64
	var startInst uint64
	if m, ok := src.(*emu.Machine); ok {
		// The rename tables must believe the machine's register
		// values, not the reset zeros, or optimizer verification
		// (rightly) rejects the seeded state.
		regs := m.Regs()
		initRegs = &regs
		startInst = m.InstCount()
	}
	if fe == nil {
		fe = takeFrontEnd(&cfg)
	}
	shape := cfg.shape()
	be := takeBackEnd()
	s := &Session{
		cfg:      cfg,
		src:      src,
		be:       be,
		fe:       fe,
		bp:       fe.bp,
		caches:   fe.caches,
		renQCap:  shape.renQCap,
		stalling: noOp,
		lastLine: notReady,
	}
	be.reset(&cfg, initRegs, shape)
	s.backEnd = *be
	s.lineB = uint64(fe.caches.L1I.Config().LineB)
	s.l1iLat = fe.caches.L1I.Latency()
	s.res.Machine = cfg.Name
	s.res.Program = prog.Name
	s.res.StartInst = startInst
	return s, nil
}

// LiveRegs returns the number of live physical registers (leak checks;
// call after Run, which records the count before it returns the
// register file to the pool).
func (s *Session) LiveRegs() int {
	if s.be == nil {
		return s.liveRegs
	}
	return s.prf.LiveCount()
}

// op resolves an opRef to its arena slot. The pointer is valid until
// the next newOp call (which may grow the slab); the cycle stages hold
// it only within one loop iteration.
func (s *Session) op(i opRef) *dynOp { return &s.ops[i] }

// newOp takes a recycled slot from the arena free list, or extends the
// slab while the in-flight population is still ramping. Recycled ops
// arrive with branch flags and memory dependence cleared (see freeOp);
// the fetch/rename/dispatch/issue path overwrites every other field
// before reading it.
func (s *Session) newOp() opRef {
	if n := len(s.opFree); n > 0 {
		i := s.opFree[n-1]
		s.opFree = s.opFree[:n-1]
		return i
	}
	s.ops = append(s.ops, dynOp{memDep: noOp})
	return opRef(len(s.ops) - 1)
}

// freeOp recycles op's slot at retire. The generation advances, so any
// stale reference still held (a younger load's memDep) is detectable
// by generation mismatch. Only the fields the fetch/rename path reads
// before writing — the set-only-to-true branch flags and the memory
// dependence — are reset; everything else (d, res, timing stamps) is
// fully overwritten on reuse.
func (s *Session) freeOp(i opRef) {
	op := s.op(i)
	op.gen++
	op.issued = false
	op.mispredicted = false
	op.stallsFetch = false
	op.resolvedEarly = false
	op.decodeHandled = false
	op.memDep = noOp
	op.memDepGen = 0
	s.opFree = append(s.opFree, i)
}

func (s *Session) done() bool {
	return s.fetchDone && s.fetchQ.len() == 0 && s.renQ.len() == 0 && s.window.len() == 0
}

// retire removes completed instructions, oldest first, releasing their
// physical-register references and recycling the ops into the arena.
func (s *Session) retire() {
	n := 0
	for n < s.cfg.RetireWidth && s.window.len() > 0 {
		ref := s.window.front()
		op := s.op(ref)
		if !op.completed(s.cycle, s.ready) {
			break
		}
		s.window.popFront()
		s.prf.Release(op.res.Dest)
		for _, p := range op.res.Deps {
			s.prf.Release(p)
		}
		s.res.Retired++
		if s.onRetire != nil {
			s.onRetire(op, s.cycle)
		}
		// A retiring store leaves the store-to-load dependence map
		// (unless a younger store to the same address replaced it);
		// after this the op is unreachable and safe to recycle.
		if op.d.Inst.Op.IsStore() && s.lastStore[op.d.Addr] == ref {
			delete(s.lastStore, op.d.Addr)
		}
		s.freeOp(ref)
		n++
	}
}

// complete processes execution completions scheduled for this cycle:
// value feedback dispatch and branch resolution redirects.
func (s *Session) complete() {
	for _, ref := range s.completions.take(s.cycle) {
		op := s.op(ref)
		if op.res.Dest != regfile.NoPReg && s.cfg.Opt.Mode != core.ModeBaseline {
			// The in-flight feedback value holds a reference so the preg
			// cannot be freed and reallocated before delivery.
			s.prf.AddRef(op.res.Dest)
			s.feedbackQ.schedule(s.cycle, s.cycle+s.cfg.FeedbackDelay, feedbackEv{op.res.Dest, op.d.Result})
		}
		if op.stallsFetch && !op.resolvedEarly {
			s.fetchResumeAt = s.cycle + s.cfg.RedirectLat
			s.stalling = noOp
			s.res.LateRecovered++
		}
	}
}

// opLatency returns the execution latency of an issued op, charging the
// data cache for loads.
func (s *Session) opLatency(op *dynOp) uint64 {
	in := op.d.Inst
	switch {
	case in.Op.IsLoad():
		lat := s.caches.DataAccess(op.d.Addr)
		if !op.res.AddrKnown {
			lat++ // address generation
		}
		return lat
	case in.Op.IsStore():
		return 1
	}
	switch op.res.ExecClass {
	case isa.ClassSimpleInt, isa.ClassBranch:
		return 1
	}
	switch in.Op {
	case isa.MUL, isa.MULH:
		return 7
	case isa.DIV, isa.REM:
		return 20
	case isa.FADD, isa.FSUB:
		return 4
	case isa.FMUL:
		return 6
	case isa.FDIV:
		return 20
	default: // FNEG, FMOV, ITOF, FTOI, FCMP*
		return 2
	}
}

// issue selects ready instructions from each scheduler, oldest first,
// bounded by the execution units.
func (s *Session) issue() {
	units := [numScheds]int{
		schedInt:     s.cfg.NumSimpleALU,
		schedComplex: s.cfg.NumComplexALU,
		schedFP:      s.cfg.NumFPALU,
		schedMem:     s.cfg.DCachePorts, // refined below with agen constraint
	}
	agenLeft := s.cfg.NumAgen
	portsLeft := s.cfg.DCachePorts

	for cls := schedInt; cls < numScheds; cls++ {
		q := s.scheds[cls]
		if len(q) == 0 {
			continue
		}
		left := units[cls]
		kept := q[:0]
		for _, ref := range q {
			if left == 0 {
				kept = append(kept, ref)
				continue
			}
			op := s.op(ref)
			if !s.canIssue(op, &agenLeft, &portsLeft) {
				kept = append(kept, ref)
				continue
			}
			op.issued = true
			lat := s.opLatency(op)
			op.doneAt = s.cycle + s.cfg.RegReadLat + lat
			if op.res.Dest != regfile.NoPReg {
				s.ready[op.res.Dest] = op.doneAt
			}
			s.completions.schedule(s.cycle, op.doneAt, ref)
			left--
		}
		// Preserve queue order for age-based selection.
		s.scheds[cls] = kept
	}
}

// canIssue checks operand readiness and memory-unit availability.
func (s *Session) canIssue(op *dynOp, agenLeft, portsLeft *int) bool {
	if op.dispatchedAt+s.cfg.SchedMinLat > s.cycle {
		return false
	}
	execStart := s.cycle + s.cfg.RegReadLat
	for _, p := range op.res.Deps {
		if s.ready[p] == notReady || s.ready[p] > execStart {
			return false
		}
	}
	// A load forwarding from an in-flight store waits for the store's
	// data (store-to-load forwarding latency is folded into the load's
	// own access latency). A generation mismatch means the store has
	// retired (its arena slot was recycled); a retired store completed
	// no later than its retirement cycle <= now < execStart, so the
	// dependence is satisfied — identical timing to the frozen doneAt
	// the pre-arena heap op would have reported.
	if op.memDep != noOp {
		dep := s.op(op.memDep)
		if dep.gen != op.memDepGen {
			op.memDep = noOp
		} else if dep.doneAt == notReady || dep.doneAt > execStart {
			return false
		}
	}
	in := op.d.Inst
	if in.Op.IsLoad() {
		needAgen := 0
		if !op.res.AddrKnown {
			needAgen = 1
		}
		if *portsLeft == 0 || *agenLeft < needAgen {
			return false
		}
		*portsLeft--
		*agenLeft -= needAgen
	} else if in.Op.IsStore() {
		if !op.res.AddrKnown {
			if *agenLeft == 0 {
				return false
			}
			*agenLeft--
		}
	}
	return true
}

// dispatch moves renamed instructions into the window and schedulers.
func (s *Session) dispatch() {
	n := 0
	for n < s.cfg.FetchWidth && s.renQ.len() > 0 {
		ref := s.renQ.front()
		op := s.op(ref)
		if op.renameDoneAt+s.cfg.DispatchLat > s.cycle {
			break
		}
		if s.window.len() >= s.cfg.WindowSize {
			s.res.WindowStalls++
			break
		}
		if op.res.Kind == core.KindNormal {
			if len(s.scheds[op.sched]) >= s.cfg.SchedEntries {
				s.res.SchedStalls++
				break
			}
			s.scheds[op.sched] = append(s.scheds[op.sched], ref)
		}
		op.dispatchedAt = s.cycle
		s.window.push(ref)
		s.renQ.popFront()
		n++
	}
}

// rename runs the optimizer over up to one bundle of fetched
// instructions, after applying any value feedback due this cycle.
func (s *Session) rename() {
	// Deliver value feedback that has arrived at the optimizer tables.
	for _, ev := range s.feedbackQ.take(s.cycle) {
		s.opt.Feedback(ev.preg, ev.val)
		s.prf.Release(ev.preg)
	}

	if s.fetchQ.len() == 0 {
		return
	}
	s.opt.BeginBundle()
	renameDone := s.cycle + s.cfg.totalRenameLat()
	n := 0
	for n < s.cfg.FetchWidth && s.fetchQ.len() > 0 && s.renQ.len() < s.renQCap {
		ref := s.fetchQ.front()
		op := s.op(ref)
		if op.frontReadyAt > s.cycle {
			break
		}
		if !s.opt.CanRename() {
			s.res.RegStalls++
			break
		}
		op.res = s.opt.RenameInto(&op.d, op.depbuf[:0])
		op.renameDoneAt = renameDone
		op.doneAt = notReady
		op.sched = schedOf(op.res.ExecClass)
		// Memory dependences: loads forward from the youngest older
		// store to the same address that is still in flight.
		if op.d.Inst.Op.IsStore() {
			s.lastStore[op.d.Addr] = ref
		} else if op.d.Inst.Op.IsLoad() && op.res.Kind == core.KindNormal {
			if dep, ok := s.lastStore[op.d.Addr]; ok {
				op.memDep, op.memDepGen = dep, s.op(dep).gen
			}
		}
		switch op.res.Kind {
		case core.KindEarly:
			if op.res.Dest != regfile.NoPReg {
				s.ready[op.res.Dest] = renameDone
			}
		case core.KindNormal:
			if op.res.Dest != regfile.NoPReg {
				s.ready[op.res.Dest] = notReady
			}
		}
		// Early branch resolution: a stalled misprediction redirects
		// fetch right after the extended rename stage instead of waiting
		// for execute (§2.5.1).
		if op.stallsFetch && op.res.BranchResolved {
			op.resolvedEarly = true
			s.fetchResumeAt = renameDone
			s.stalling = noOp
			s.res.EarlyRecovered++
		}
		s.fetchQ.popFront()
		s.renQ.push(ref)
		n++
	}
}

// fetch pulls correct-path instructions from the dynamic-stream source
// (live oracle or trace replay), consulting the branch predictor and
// I-cache and stalling on mispredictions.
func (s *Session) fetch() {
	if s.fetchDone || s.cycle < s.fetchBlockedAt {
		return
	}
	if s.stalling != noOp || s.cycle < s.fetchResumeAt {
		return
	}
	// The fetch buffer must cover the front-end latency at full width.
	if s.fetchQ.len() >= s.cfg.FetchWidth*int(s.cfg.FrontLat+2) {
		return
	}
	for n := 0; n < s.cfg.FetchWidth; n++ {
		ref := s.newOp()
		op := s.op(ref)
		if !s.src.StepInto(&op.d) {
			s.freeOp(ref)
			s.fetchDone = true
			return
		}
		d := &op.d
		s.fetched++

		// Instruction cache: one access per new line.
		const instBytes = 4
		addr := d.PC * instBytes
		line := addr &^ (s.lineB - 1)
		extra := uint64(0)
		if line != s.lastLine {
			lat := s.caches.InstFetch(addr)
			s.lastLine = line
			if lat > s.l1iLat {
				extra = lat - s.l1iLat
			}
			// Next-line prefetch: the front end streams the sequential
			// line behind the demand fetch, hiding its latency.
			s.caches.InstFetch(addr + s.lineB)
		}
		op.frontReadyAt = s.cycle + s.cfg.FrontLat + extra
		op.doneAt = notReady
		s.fetchQ.push(ref)

		if d.Halt || (s.cfg.MaxInsts > 0 && s.fetched >= s.cfg.MaxInsts) {
			s.fetchDone = true
			return
		}
		if extra > 0 {
			// I-cache miss: fetch resumes when the line arrives.
			s.fetchBlockedAt = s.cycle + extra
			return
		}

		in := d.Inst
		if !in.Op.IsBranch() {
			continue
		}
		if s.handleBranch(ref) {
			return // fetch stalled or redirected
		}
		if d.Taken {
			// No fetching past a taken branch within one cycle.
			return
		}
	}
}

// handleBranch predicts and trains the front end for a branch op and
// reports whether fetch must stop this cycle beyond the branch.
func (s *Session) handleBranch(ref opRef) bool {
	op := s.op(ref)
	d := &op.d
	in := d.Inst
	isReturn := in.Op == isa.JMP && in.SrcA == isa.IntReg(26)
	pred := s.bp.Predict(d.PC, in.Op, isReturn)

	mis := pred.Taken != d.Taken ||
		(d.Taken && (!pred.TargetKnown || pred.Target != d.NextPC))
	s.bp.Update(d.PC, in.Op, d.Taken, d.NextPC, mis)
	if !mis {
		return false
	}

	if in.Op == isa.BR || in.Op == isa.JSR {
		// Static-target branches that miss the BTB are repaired at
		// decode: the front end restarts once the target is decoded.
		op.decodeHandled = true
		s.res.DecodeRedirects++
		s.fetchResumeAt = s.cycle + s.cfg.FrontLat
		return true
	}

	// Conditional or computed-target misprediction: fetch stalls until
	// the branch resolves (at rename if the optimizer knows the inputs,
	// else at execute).
	op.mispredicted = true
	op.stallsFetch = true
	s.stalling = ref
	s.fetchResumeAt = notReady
	s.res.Mispredicted++
	return true
}
