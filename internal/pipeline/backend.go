package pipeline

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/regfile"
)

// backEnd is everything a session works on besides its front-end: the
// physical register file, the optimizer with its tables and MBC, the
// ready times, the event wheels, the pipeline rings and schedulers, the
// op arena and the store-to-load map. Together they are most of what a
// short sampled window used to allocate, so they are pooled too. One
// pool serves every machine: reset sizes each structure for the
// session's shape — reusing its storage when it is large enough — and
// leaves it in exactly the state building it afresh would, so a grid
// of register-file sizes shares one pool instead of splitting it.
type backEnd struct {
	prf   *regfile.File
	opt   *core.Optimizer
	ready []uint64

	// completions and feedbackQ are fixed-horizon event wheels indexed
	// by cycle & mask; the horizon (Config.shape) covers the worst-case
	// execution latency (cache-miss chain, long dividers) plus the
	// feedback delay, so every event fits.
	completions wheel[opRef]
	feedbackQ   wheel[feedbackEv]

	fetchQ opRing
	renQ   opRing
	window opRing
	scheds [numScheds][]schedEntry

	// ops and opFree implement the dynOp arena: all in-flight ops live
	// in the ops slab (presized to the pipeline's total queue capacity,
	// so it stops growing once the machine fills), retire pushes
	// recycled slots onto opFree, and fetch pops them.
	ops    []dynOp
	opFree []opRef

	// lastStore tracks the youngest in-flight renamed store per address
	// for store-to-load dependence timing. Entries are evicted when the
	// store retires — required for arena recycling (a stale entry would
	// alias a recycled op) and to keep the map bounded by the window
	// size instead of the run's store footprint.
	lastStore map[uint64]opRef
}

// backEnds is the back-end pool; the garbage collector drains it like
// the front-end pools.
var backEnds sync.Pool

// backEndBuilds and backEndReuses count back-ends built afresh and
// taken from the pool.
var backEndBuilds, backEndReuses atomic.Uint64

// takeBackEnd returns an idle back-end from the pool, or an empty one
// (reset builds its structures) when the pool is empty or pooling is
// off.
func takeBackEnd() *backEnd {
	if !noPools.Load() {
		if be, _ := backEnds.Get().(*backEnd); be != nil {
			backEndReuses.Add(1)
			return be
		}
	}
	backEndBuilds.Add(1)
	return new(backEnd)
}

// release returns be to the pool. The caller must hold no reference to
// be or its structures afterwards.
func (be *backEnd) release() {
	if !noPools.Load() {
		backEnds.Put(be)
	}
}

// reset prepares be for a session of cfg whose machine starts with
// architectural registers regs (nil: the reset zeros): every structure
// sized for cfg and shape, empty, with the optimizer's initial
// mappings in place — the state building each one afresh gives.
func (be *backEnd) reset(cfg *Config, regs *[isa.NumRegs]uint64, shape backEndShape) {
	if be.prf == nil {
		be.prf = regfile.New(cfg.PRegs)
		be.opt = core.NewOptimizerAt(cfg.Opt, be.prf, regs)
	} else {
		be.prf.Reset(cfg.PRegs)
		be.opt.ResetAt(cfg.Opt, regs)
	}
	be.ready = regfile.Resize(be.ready, cfg.PRegs)
	be.completions.reset(shape.horizon)
	be.feedbackQ.reset(shape.horizon)
	// Pre-size the pipeline queues to their steady-state bounds so
	// sessions skip the initial ring-growth ramp — noticeable when
	// sampled simulation builds one short session per window.
	be.fetchQ.reset(shape.fetchCap)
	be.renQ.reset(shape.renQCap)
	be.window.reset(cfg.WindowSize)
	for c := range be.scheds {
		if cap(be.scheds[c]) < cfg.SchedEntries {
			be.scheds[c] = make([]schedEntry, 0, cfg.SchedEntries)
		}
		be.scheds[c] = be.scheds[c][:0]
	}
	// In-flight ops can never exceed the arena's shape, so the slab
	// stops growing — and op indices stay stable — once the machine
	// fills.
	if cap(be.ops) < shape.ops {
		be.ops = make([]dynOp, 0, shape.ops)
	}
	be.ops = be.ops[:0]
	be.opFree = be.opFree[:0]
	if be.lastStore == nil {
		be.lastStore = make(map[uint64]opRef)
	}
	clear(be.lastStore)
}

// ReuseStats counts how sessions obtained their back-ends since the
// process started: built afresh, or taken reset from the pool.
type ReuseStats struct {
	BackEndBuilds uint64
	BackEndReuses uint64
}

// Reuse returns the process-wide back-end pool counters.
func Reuse() ReuseStats {
	return ReuseStats{BackEndBuilds: backEndBuilds.Load(), BackEndReuses: backEndReuses.Load()}
}
