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

import "repro/internal/isa"

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
		cfg:    cfg,
		pht:    make([]uint8, n),
		btbTag: make([]uint64, cfg.BTBEntries),
		btbTgt: make([]uint64, cfg.BTBEntries),
		btbOK:  make([]bool, cfg.BTBEntries),
		ras:    make([]uint64, cfg.RASEntries),
	}
	p.Reset()
	return p
}

// Reset returns the predictor to exactly the state New builds: empty
// history, BTB and return stack, every counter weakly not-taken, and
// statistics zero. Simulation reuses one predictor per geometry this
// way instead of allocating a fresh table per session or sampled
// window.
func (p *Predictor) Reset() {
	p.history = 0
	// Fill the counters by doubling copies: the 256K-entry default
	// table is written at memmove speed instead of byte-at-a-time.
	p.pht[0] = 1
	for i := 1; i < len(p.pht); i <<= 1 {
		copy(p.pht[i:], p.pht[:i])
	}
	clear(p.btbTag)
	clear(p.btbTgt)
	clear(p.btbOK)
	clear(p.ras)
	p.rasTop = 0
	p.Lookups, p.DirMisses, p.TgtMisses = 0, 0, 0
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
		ctr := &p.pht[p.phtIndex(pc)]
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
