package bpred

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
)

// fullScanDelta is the reference for Delta: it scans the whole pattern
// table and BTB for entries that differ from the New state. blocks are
// the counter blocks the caller saw written, which no scan can tell
// from the table once their counters are back at reset.
func fullScanDelta(p *Predictor, blocks map[uint32]bool) Delta {
	d := Delta{
		History:   p.history,
		RAS:       append([]uint64(nil), p.ras...),
		RASTop:    p.rasTop,
		Lookups:   p.Lookups,
		DirMisses: p.DirMisses,
		TgtMisses: p.TgtMisses,
	}
	dirty := map[uint32]bool{}
	for i, ctr := range p.pht {
		if ctr != 1 {
			d.PHTIndex = append(d.PHTIndex, uint32(i))
			d.PHT = append(d.PHT, ctr)
			dirty[uint32(i/phtBlock)] = true
		}
	}
	for b := range blocks {
		if !dirty[b] {
			d.PHTClean = append(d.PHTClean, b)
		}
	}
	slices.Sort(d.PHTClean)
	for i, ok := range p.btbOK {
		if ok {
			d.BTBIndex = append(d.BTBIndex, uint32(i))
			d.BTBTag = append(d.BTBTag, p.btbTag[i])
			d.BTBTgt = append(d.BTBTgt, p.btbTgt[i])
		}
	}
	return d
}

// TestSparseResetProperty: through seeded random runs of predictions
// and updates, resets and Applies of earlier deltas, a predictor's
// Delta equals a full-scan reference, Apply of it on a new predictor
// reproduces the predictor deeply (dirty marks included), and Reset
// leaves it deeply equal to New — on the default geometry and on a
// tiny one, where a block is smaller than the table's 64-counter mark
// granule and every BTB entry is contended.
func TestSparseResetProperty(t *testing.T) {
	ops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BR, isa.JSR, isa.JMP}
	for i, cfg := range []Config{
		DefaultConfig(),
		{IndexBits: 3, HistoryBits: 2, BTBEntries: 8, RASEntries: 4},
	} {
		rng := rand.New(rand.NewPCG(uint64(i), 9))
		p := New(cfg)
		blocks := map[uint32]bool{} // the counter blocks Update or Apply wrote
		var saved []Delta
		clean := 0 // deltas that carried a marked block with no trained counter
		for round := 0; round < 60; round++ {
			n := rng.IntN(300)
			if rng.IntN(4) == 0 {
				p.Reset()
				clear(blocks)
				switch r := rng.IntN(3); {
				case r > 0 && len(saved) > 0:
					d := &saved[rng.IntN(len(saved))]
					p.Apply(d)
					for _, b := range d.PHTClean {
						blocks[b] = true
					}
					for _, i := range d.PHTIndex {
						blocks[i/phtBlock] = true
					}
				case r == 0:
					// Train one counter up and back down, and nothing
					// else: its block stays marked with every counter
					// at reset.
					pc := rng.Uint64N(1 << 20)
					i := p.phtIndex(pc)
					blocks[uint32(i/phtBlock)] = true
					p.Update(pc, isa.BEQ, true, pc+4, false)
					p.Update(i^(p.history&(1<<p.cfg.HistoryBits-1)), isa.BEQ, false, 0, false)
					n = 0
				}
			}
			base := rng.Uint64N(1 << 20)
			for ; n > 0; n-- {
				pc := base + rng.Uint64N(200)*4
				op := ops[rng.IntN(len(ops))]
				isReturn := op == isa.JMP && rng.IntN(2) == 0
				pred := p.Predict(pc, op, isReturn)
				taken := !op.IsCondBranch() || rng.IntN(3) > 0
				target := pc + rng.Uint64N(64)*4
				if op.IsCondBranch() {
					blocks[uint32(p.phtIndex(pc)/phtBlock)] = true
				}
				p.Update(pc, op, taken, target, pred.Taken != taken || (taken && (!pred.TargetKnown || pred.Target != target)))
			}
			d := p.Delta()
			if want := fullScanDelta(p, blocks); !reflect.DeepEqual(d, want) {
				t.Fatalf("IndexBits %d round %d: Delta (%d counters, %d clean blocks, %d BTB) differs from a full scan (%d, %d, %d)",
					cfg.IndexBits, round, len(d.PHTIndex), len(d.PHTClean), len(d.BTBIndex),
					len(want.PHTIndex), len(want.PHTClean), len(want.BTBIndex))
			}
			applied := New(cfg)
			applied.Apply(&d)
			if !reflect.DeepEqual(applied, p) {
				t.Fatalf("IndexBits %d round %d: Apply(Delta) on a new predictor differs from the predictor", cfg.IndexBits, round)
			}
			saved = append(saved, d)
			if len(d.PHTClean) > 0 {
				clean++
			}
		}
		if clean == 0 {
			t.Errorf("IndexBits %d: no delta carried a clean marked block; the test would not exercise PHTClean", cfg.IndexBits)
		}
		p.Reset()
		if !reflect.DeepEqual(p, New(cfg)) {
			t.Errorf("IndexBits %d: Reset differs from New", cfg.IndexBits)
		}
	}
}
