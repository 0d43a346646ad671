package bpred

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// trainRandom drives p with a random branch stream over a few hundred static
// branches: conditional branches, calls, returns and computed jumps.
func trainRandom(p *Predictor, rng *rand.Rand, n int) {
	ops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BR, isa.JSR, isa.JMP}
	for i := 0; i < n; i++ {
		pc := uint64(rng.Intn(400)) * 4
		op := ops[rng.Intn(len(ops))]
		isReturn := op == isa.JMP && rng.Intn(2) == 0
		pred := p.Predict(pc, op, isReturn)
		taken := !op.IsCondBranch() || rng.Intn(3) > 0
		target := pc + uint64(rng.Intn(64))*4
		mis := pred.Taken != taken || (taken && (!pred.TargetKnown || pred.Target != target))
		p.Update(pc, op, taken, target, mis)
	}
}

// TestDeltaApplyReproducesWarmedPredictor: a trained predictor recorded
// as a Delta and applied to a reset predictor — fresh, or reused after
// other training — is deeply equal to the trained one.
func TestDeltaApplyReproducesWarmedPredictor(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {IndexBits: 3, HistoryBits: 2, BTBEntries: 8, RASEntries: 4}} {
		rng := rand.New(rand.NewSource(7))
		warm := New(cfg)
		trainRandom(warm, rng, 5000)
		d := warm.Delta()

		fresh := New(cfg)
		fresh.Apply(&d)
		if !reflect.DeepEqual(fresh, warm) {
			t.Errorf("IndexBits %d: Apply on a new predictor differs from the trained one", cfg.IndexBits)
		}
		reused := New(cfg)
		trainRandom(reused, rng, 3000)
		reused.Reset()
		reused.Apply(&d)
		if !reflect.DeepEqual(reused, warm) {
			t.Errorf("IndexBits %d: Apply on a reset, reused predictor differs from the trained one", cfg.IndexBits)
		}
		if got := New(cfg).Delta(); len(got.PHTIndex) != 0 || len(got.BTBIndex) != 0 {
			t.Errorf("IndexBits %d: a reset predictor records a non-empty delta", cfg.IndexBits)
		}
	}
}
