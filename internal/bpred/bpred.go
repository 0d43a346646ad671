// Package bpred implements the front-end branch prediction hardware of the
// simulated machine: an 18-bit gshare direction predictor with a
// 1K-entry branch target buffer (Table 2 of the paper) plus a return
// address stack for subroutine returns.
//
// The predictor is used by a trace-driven pipeline: Predict is a pure
// lookup (only the return-address stack mutates, as it would at fetch)
// and Update trains the tables with the resolved outcome. Global history
// always holds true outcomes — the standard trace-driven idealization of
// perfect history checkpoint recovery.
package bpred

import (
	"repro/internal/bitset"
	"repro/internal/isa"
)

// Config sizes the predictor structures.
type Config struct {
	// IndexBits is the PHT index width (table has 1<<IndexBits 2-bit
	// counters).
	IndexBits uint
	// HistoryBits is the global-history length XORed into the index.
	// Zero yields a bimodal (per-PC) predictor, useful in tests.
	HistoryBits uint
	// BTBEntries is the number of direct-mapped BTB entries.
	BTBEntries int
	// RASEntries is the return-address-stack depth.
	RASEntries int
	// IndirectBTB lets computed jumps (JMP) use the BTB as a last-target
	// predictor. Off by default: the paper's machine (Table 2) lists no
	// indirect predictor, so computed jumps always redirect at resolve.
	IndirectBTB bool
}

// DefaultConfig matches Table 2: 18-bit gshare, 1K-entry BTB.
func DefaultConfig() Config {
	return Config{IndexBits: 18, HistoryBits: 18, BTBEntries: 1024, RASEntries: 16}
}

// Predictor is the combined direction + target predictor.
type Predictor struct {
	cfg     Config
	history uint64
	pht     []uint8 // 2-bit saturating counters
	btbTag  []uint64
	btbTgt  []uint64
	btbOK   []bool
	ras     []uint64
	rasTop  int

	// Marks of what differs from the New state, so Reset and Delta
	// visit only what a run wrote: the phtBlock-counter blocks and the
	// BTB entries Update or Apply wrote. A BTB write always sets the
	// valid bit, so the marked entries are exactly the valid ones.
	phtDirty bitset.Set
	btbDirty bitset.Set

	// Stats.
	Lookups   uint64
	DirMisses uint64
	TgtMisses uint64
}

// New builds a predictor; counters start weakly not-taken.
func New(cfg Config) *Predictor {
	if cfg.IndexBits == 0 || cfg.IndexBits > 24 {
		cfg.IndexBits = 18
		cfg.HistoryBits = 18
	}
	if cfg.HistoryBits > cfg.IndexBits {
		cfg.HistoryBits = cfg.IndexBits
	}
	if cfg.BTBEntries <= 0 {
		cfg.BTBEntries = 1024
	}
	if cfg.RASEntries <= 0 {
		cfg.RASEntries = 16
	}
	n := 1 << cfg.IndexBits
	p := &Predictor{
		cfg:      cfg,
		pht:      make([]uint8, n),
		btbTag:   make([]uint64, cfg.BTBEntries),
		btbTgt:   make([]uint64, cfg.BTBEntries),
		btbOK:    make([]bool, cfg.BTBEntries),
		ras:      make([]uint64, cfg.RASEntries),
		phtDirty: bitset.New((n + phtBlock - 1) / phtBlock),
		btbDirty: bitset.New(cfg.BTBEntries),
	}
	// Fill the counters by doubling copies: the 256K-entry default
	// table is written at memmove speed instead of byte-at-a-time.
	p.pht[0] = 1
	for i := 1; i < n; i <<= 1 {
		copy(p.pht[i:], p.pht[:i])
	}
	return p
}

// phtBlock is the number of counters one dirty mark covers.
const phtBlock = 64

// weakNotTakenBlock is one block of reset counters.
var weakNotTakenBlock = func() (b [phtBlock]uint8) {
	for i := range b {
		b[i] = 1
	}
	return b
}()

// phtBlockRange returns the counter indices [lo, hi) of block b.
func (p *Predictor) phtBlockRange(b int) (lo, hi int) {
	lo = b * phtBlock
	return lo, min(lo+phtBlock, len(p.pht))
}

// Reset returns the predictor to exactly the state New builds: empty
// history, BTB and return stack, every counter weakly not-taken, and
// statistics zero. Only the marked counter blocks and BTB entries are
// rewritten. Simulation reuses one predictor per geometry this way
// instead of allocating a fresh table per session or sampled window.
func (p *Predictor) Reset() {
	p.history = 0
	for b := range p.phtDirty.All() {
		lo, hi := p.phtBlockRange(b)
		copy(p.pht[lo:hi], weakNotTakenBlock[:])
	}
	clear(p.phtDirty)
	for i := range p.btbDirty.All() {
		p.btbTag[i], p.btbTgt[i], p.btbOK[i] = 0, 0, false
	}
	clear(p.btbDirty)
	clear(p.ras)
	p.rasTop = 0
	p.Lookups, p.DirMisses, p.TgtMisses = 0, 0, 0
}

// Delta is a predictor's state as a sparse difference from its reset
// state: the pattern-table counters and BTB entries that differ, the
// marked counter blocks none of whose counters differ (trained counters
// can return to their reset value), the return stack, the global
// history and the statistics counters. Apply on a reset predictor of
// the same geometry reproduces the recorded state exactly, marks
// included; functional warming trains a few hundred counters of a
// 256K-entry table, so a Delta is a small fraction of the predictor.
type Delta struct {
	History   uint64
	PHTIndex  []uint32
	PHT       []uint8
	PHTClean  []uint32
	BTBIndex  []uint32
	BTBTag    []uint64
	BTBTgt    []uint64
	RAS       []uint64
	RASTop    int
	Lookups   uint64
	DirMisses uint64
	TgtMisses uint64
}

// Delta records the predictor as a difference from its reset state.
func (p *Predictor) Delta() Delta {
	d := Delta{
		History:   p.history,
		RAS:       append([]uint64(nil), p.ras...),
		RASTop:    p.rasTop,
		Lookups:   p.Lookups,
		DirMisses: p.DirMisses,
		TgtMisses: p.TgtMisses,
	}
	for b := range p.phtDirty.All() {
		lo, hi := p.phtBlockRange(b)
		n := len(d.PHTIndex)
		for i := lo; i < hi; i++ {
			if p.pht[i] != 1 {
				d.PHTIndex = append(d.PHTIndex, uint32(i))
				d.PHT = append(d.PHT, p.pht[i])
			}
		}
		if len(d.PHTIndex) == n {
			d.PHTClean = append(d.PHTClean, uint32(b))
		}
	}
	for i := range p.btbDirty.All() {
		d.BTBIndex = append(d.BTBIndex, uint32(i))
		d.BTBTag = append(d.BTBTag, p.btbTag[i])
		d.BTBTgt = append(d.BTBTgt, p.btbTgt[i])
	}
	return d
}

// Apply installs d on a reset predictor of the geometry it was recorded
// from, leaving it in exactly the recorded state.
func (p *Predictor) Apply(d *Delta) {
	p.history = d.History
	for _, b := range d.PHTClean {
		p.phtDirty.Add(int(b))
	}
	for k, i := range d.PHTIndex {
		p.pht[i] = d.PHT[k]
		p.phtDirty.Add(int(i / phtBlock))
	}
	for k, i := range d.BTBIndex {
		p.btbTag[i], p.btbTgt[i] = d.BTBTag[k], d.BTBTgt[k]
		p.btbOK[i] = true
		p.btbDirty.Add(int(i))
	}
	copy(p.ras, d.RAS)
	p.rasTop = d.RASTop
	p.Lookups, p.DirMisses, p.TgtMisses = d.Lookups, d.DirMisses, d.TgtMisses
}

// Prediction is the front end's guess for one branch.
type Prediction struct {
	// Taken is the predicted direction (always true for unconditional
	// branches).
	Taken bool
	// Target is the predicted target PC, valid only when TargetKnown.
	Target uint64
	// TargetKnown reports whether the BTB/RAS supplied a target.
	TargetKnown bool
}

func (p *Predictor) phtIndex(pc uint64) uint64 {
	idxMask := uint64(1)<<p.cfg.IndexBits - 1
	histMask := uint64(1)<<p.cfg.HistoryBits - 1
	return (pc ^ (p.history & histMask)) & idxMask
}

func (p *Predictor) btbIndex(pc uint64) int {
	return int(pc % uint64(p.cfg.BTBEntries))
}

// Predict returns the front-end guess for the branch op at pc. Only the
// return-address stack mutates (pushes on calls, pops on returns), as it
// would at fetch; isReturn marks JMPs used as returns.
func (p *Predictor) Predict(pc uint64, op isa.Op, isReturn bool) Prediction {
	p.Lookups++
	var pred Prediction
	switch {
	case op.IsCondBranch():
		pred.Taken = p.pht[p.phtIndex(pc)] >= 2
	case op == isa.JSR:
		pred.Taken = true
		p.push(pc + 1)
	case op == isa.JMP && isReturn:
		pred.Taken = true
		if p.rasTop > 0 {
			pred.Target = p.pop()
			pred.TargetKnown = true
		}
		return pred
	default: // BR, computed JMP
		pred.Taken = true
	}
	if pred.Taken {
		i := p.btbIndex(pc)
		if p.btbOK[i] && p.btbTag[i] == pc {
			pred.Target = p.btbTgt[i]
			pred.TargetKnown = true
		}
	}
	return pred
}

// Update trains the predictor with a resolved branch outcome and records
// misprediction statistics.
func (p *Predictor) Update(pc uint64, op isa.Op, taken bool, target uint64, mispredicted bool) {
	if op.IsCondBranch() {
		i := p.phtIndex(pc)
		p.phtDirty.Add(int(i / phtBlock))
		ctr := &p.pht[i]
		if taken {
			if *ctr < 3 {
				*ctr++
			}
		} else if *ctr > 0 {
			*ctr--
		}
		p.history = p.history<<1 | b2u(taken)
	}
	// Computed-jump targets vary per dynamic instance; caching one in
	// the BTB serves stale targets unless last-target prediction is
	// explicitly enabled.
	if taken && (op != isa.JMP || p.cfg.IndirectBTB) {
		i := p.btbIndex(pc)
		p.btbTag[i], p.btbTgt[i], p.btbOK[i] = pc, target, true
		p.btbDirty.Add(i)
	}
	if mispredicted {
		if op.IsCondBranch() {
			p.DirMisses++
		} else {
			p.TgtMisses++
		}
	}
}

func (p *Predictor) push(v uint64) {
	if p.rasTop == len(p.ras) {
		copy(p.ras, p.ras[1:])
		p.rasTop--
	}
	p.ras[p.rasTop] = v
	p.rasTop++
}

func (p *Predictor) pop() uint64 {
	p.rasTop--
	return p.ras[p.rasTop]
}

// RASDepth returns the current return-stack depth (for tests).
func (p *Predictor) RASDepth() int { return p.rasTop }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
