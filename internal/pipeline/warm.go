package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
)

// frontEnd is the machine's history-dependent front-end state: the
// cache hierarchy and the branch predictor. It is the largest part of
// a session (the default gshare table alone is 256 KB), so it is never
// built per session. One pool per front-end geometry hands them out:
// a Warmer takes one, trains it, and hands it to the session it seeds;
// every other session takes a cold one itself; every session puts its
// front-end back when Run returns. Taking resets it to exactly the
// state a fresh build would have, so reuse never shows in any result.
type frontEnd struct {
	caches *cache.Hierarchy
	bp     *bpred.Predictor
	pool   *sync.Pool // the pool it returns to (nil: not pooled)
	// events is Warmer.Warm's batch buffer, made on first use; its
	// capacity bounds a batch.
	events []emu.Event
}

// warmBatch is the most events one emulator batch of Warmer.Warm
// records.
const warmBatch = 256

// FrontKey is the geometry a front-end is built from (Config.Caches
// and Config.BPred). Front-ends with equal keys are interchangeable
// once reset, and functional warming of one stretch of a program gives
// the same state on every machine with the same key.
type FrontKey struct {
	caches cache.HierarchyConfig
	bp     bpred.Config
}

// FrontKey returns the front-end geometry of c, normalized.
func (c Config) FrontKey() FrontKey {
	c = c.Normalize()
	return FrontKey{c.Caches, c.BPred}
}

// frontPools maps each FrontKey to its *sync.Pool of *frontEnd. The
// pools hold only idle front-ends and the garbage collector drains
// them, so a process that stops simulating a geometry gives its memory
// back; what stays is one empty pool header per geometry ever used.
var frontPools sync.Map

// noPools, when set, makes every session and warmer build its own
// front-end and back-end and never pool them: the reference path the
// pooling equivalence tests compare against.
var noPools atomic.Bool

// takeFrontEnd returns a front-end for cfg (normalized) in its New
// state: a reset one from the geometry's pool, or a fresh build when
// the pool is empty.
func takeFrontEnd(cfg *Config) *frontEnd {
	var pool *sync.Pool
	if !noPools.Load() {
		k := FrontKey{cfg.Caches, cfg.BPred}
		p, ok := frontPools.Load(k)
		if !ok {
			p, _ = frontPools.LoadOrStore(k, new(sync.Pool))
		}
		pool = p.(*sync.Pool)
		if fe, _ := pool.Get().(*frontEnd); fe != nil {
			fe.caches.Reset()
			fe.bp.Reset()
			return fe
		}
	}
	return &frontEnd{caches: cache.NewHierarchy(cfg.Caches), bp: bpred.New(cfg.BPred), pool: pool}
}

// release returns fe to its pool. The caller must hold no reference
// to fe or its structures afterwards.
func (fe *frontEnd) release() {
	if fe.pool != nil {
		fe.pool.Put(fe)
	}
}

// Warmer keeps the machine's history-dependent front-end structures —
// the cache hierarchy and the branch predictor — functionally warm
// while the architectural emulator fast-forwards between detailed
// windows (SMARTS-style "functional warming"). Warm applies exactly
// the accesses the Session's fetch stage would issue for the same
// dynamic instructions: one I-cache access per new line plus the
// next-line prefetch, a D-cache access per load, and a predict/update
// pair per branch (including the return-address stack). A session
// seeded from the warmer (Seed) therefore starts with the cache and
// predictor contents a continuous detailed run would have had, which
// is what makes short detailed warmup windows sufficient.
//
// The warmer's front-end comes from the pool shared with sessions and
// passes to the session Seed builds, which returns it to the pool when
// its Run ends. A warmer that never seeds a session just drops its
// front-end to the garbage collector.
//
// A Warmer is single-goroutine, like the emulator it observes.
type Warmer struct {
	cfg   Config
	fe    *frontEnd
	lineB uint64
	// lastLine is the I-cache line of the last instruction fetched;
	// it carries across Warm's batches and calls.
	lastLine uint64
}

// NewWarmer builds a warmer for machines configured by cfg (normalized
// like New), starting from cold front-end state.
func NewWarmer(cfg Config) *Warmer {
	cfg = cfg.Normalize()
	fe := takeFrontEnd(&cfg)
	return &Warmer{
		cfg:      cfg,
		fe:       fe,
		lineB:    uint64(fe.caches.L1I.Config().LineB),
		lastLine: notReady,
	}
}

// instBytes is the size of an instruction in the fetch address space.
const instBytes = 4

// Warm runs m forward n instructions, or to HALT, feeding them through
// the front-end models. The emulator runs in batches (emu.RunEvents)
// that record only loads and control transfers; Warm applies each
// batch in program order, rebuilding the instruction-fetch stream from
// the PCs between events, since those run in sequence.
func (w *Warmer) Warm(m *emu.Machine, n uint64) {
	fe := w.fe
	if fe.events == nil {
		fe.events = make([]emu.Event, 0, warmBatch)
	}
	code := m.Program().Code
	for n > 0 && !m.Halted() {
		pc := m.PC
		k, evs := m.RunEvents(n, fe.events[:0])
		n -= k
		for i := range evs {
			ev := &evs[i]
			w.fetch(pc, ev.PC+1)
			if ev.Op.IsLoad() {
				// The timing model charges the D-cache for loads
				// only (stores retire without an access; see
				// Session.opLatency), so the warmer mirrors that.
				// Loads the optimizer would eliminate are still
				// touched — the warmer cannot know the optimizer's
				// table state — which the detailed warmup window
				// absorbs.
				fe.caches.DataAccess(ev.Addr)
				pc = ev.PC + 1
				continue
			}
			isReturn := ev.Op == isa.JMP && code[ev.PC].SrcA == isa.IntReg(26)
			pred := fe.bp.Predict(ev.PC, ev.Op, isReturn)
			mis := pred.Taken != ev.Taken ||
				(ev.Taken && (!pred.TargetKnown || pred.Target != ev.Addr))
			fe.bp.Update(ev.PC, ev.Op, ev.Taken, ev.Addr, mis)
			pc = ev.Addr
		}
		w.fetch(pc, m.PC)
	}
}

// fetch feeds the instruction fetches of the PCs [from, to), run in
// sequence, through the I-cache, mirroring Session.fetch: one access
// per new line, plus the next-line prefetch.
func (w *Warmer) fetch(from, to uint64) {
	if from >= to {
		return
	}
	caches, lineB := w.fe.caches, w.lineB
	addr, end := from*instBytes, to*instBytes
	if addr&^(lineB-1) != w.lastLine {
		caches.InstFetch(addr)
		caches.InstFetch(addr + lineB)
	}
	// Every later line starts on a line boundary, or on every
	// instruction when lines are shorter than one.
	step := max(lineB, instBytes)
	for a := (addr | (step - 1)) + 1; a < end; a += step {
		caches.InstFetch(a)
		caches.InstFetch(a + lineB)
	}
	w.lastLine = (end - instBytes) &^ (lineB - 1)
}

// Seed builds a session that resumes m — the machine this warmer has
// been observing, standing on the next instruction to simulate — with
// the warmer's cache and predictor contents instead of cold ones. The
// session takes both over without copying: it simulates on the live
// machine (no memory-image snapshot) and trains the warmed structures
// exactly as a continuous detailed run would. The warmer is spent; it
// must not observe again.
//
// The front-end's statistics counters keep running, so the session's
// Result reports cache/predictor statistics (BPLookups, L1D/L1I miss
// rates) that include the warming accesses, not its window alone.
func (w *Warmer) Seed(prog *emu.Program, m *emu.Machine) (*Session, error) {
	if w.fe == nil {
		return nil, fmt.Errorf("pipeline: warmer already seeded a session")
	}
	if m.Halted() {
		return nil, fmt.Errorf("pipeline: machine for %q is already halted", prog.Name)
	}
	fe := w.fe
	w.fe = nil
	return newSession(w.cfg, prog, m, fe)
}

// WarmDelta is a warmed front-end recorded as a sparse difference from
// its reset state (Warmer.Delta): the cache sets, predictor counters,
// BTB entries, return stack and history the warming touched, every
// statistics counter, and the last instruction line fetched. A few
// kilobytes stand for a front-end of hundreds; NewWarmerFrom turns it
// back into the exact warmed state. A WarmDelta is immutable and may
// seed any number of warmers concurrently.
type WarmDelta struct {
	key      FrontKey
	caches   cache.HierarchyDelta
	bp       bpred.Delta
	lastLine uint64
}

// Delta records the warmer's current front-end state. The warmer is
// unchanged and may go on observing or seed a session.
func (w *Warmer) Delta() *WarmDelta {
	return &WarmDelta{
		key:      FrontKey{w.cfg.Caches, w.cfg.BPred},
		caches:   w.fe.caches.Delta(),
		bp:       w.fe.bp.Delta(),
		lastLine: w.lastLine,
	}
}

// Bytes returns the approximate resident size of d, for memory budgets.
func (d *WarmDelta) Bytes() uint64 {
	n := uint64(unsafe.Sizeof(*d))
	for _, c := range []*cache.Delta{&d.caches.L1I, &d.caches.L1D, &d.caches.L2} {
		n += uint64(4*cap(c.Sets) + 8*cap(c.Tags) + cap(c.Valid) + cap(c.LRU))
	}
	b := &d.bp
	n += uint64(4*(cap(b.PHTIndex)+cap(b.PHTClean)) + cap(b.PHT) + 4*cap(b.BTBIndex) + 8*(cap(b.BTBTag)+cap(b.BTBTgt)+cap(b.RAS)))
	return n
}

// NewWarmerFrom builds a warmer for machines configured by cfg whose
// front-end is in exactly the state d records — as if it had observed
// the stretch d was recorded over itself. cfg must have the front-end
// geometry d was recorded under.
func NewWarmerFrom(cfg Config, d *WarmDelta) (*Warmer, error) {
	w := NewWarmer(cfg)
	if k := (FrontKey{w.cfg.Caches, w.cfg.BPred}); k != d.key {
		return nil, fmt.Errorf("pipeline: warm state of another front-end geometry cannot seed %q", w.cfg.Name)
	}
	w.fe.caches.Apply(&d.caches)
	w.fe.bp.Apply(&d.bp)
	w.lastLine = d.lastLine
	return w, nil
}
