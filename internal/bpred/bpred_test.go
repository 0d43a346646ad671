package bpred

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// bimodal returns a history-free configuration so counter behavior can be
// tested without gshare index aliasing.
func bimodal() Config {
	return Config{IndexBits: 10, HistoryBits: 0, BTBEntries: 1024, RASEntries: 16}
}

func train(p *Predictor, pc uint64, op isa.Op, taken bool, target uint64, n int) {
	for i := 0; i < n; i++ {
		pred := p.Predict(pc, op, false)
		mis := pred.Taken != taken || (taken && (!pred.TargetKnown || pred.Target != target))
		p.Update(pc, op, taken, target, mis)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.IndexBits != 18 || cfg.HistoryBits != 18 || cfg.BTBEntries != 1024 {
		t.Errorf("default config %+v does not match Table 2", cfg)
	}
}

func TestLearnsAlwaysTakenBranch(t *testing.T) {
	p := New(bimodal())
	train(p, 100, isa.BNE, true, 42, 10)
	pred := p.Predict(100, isa.BNE, false)
	if !pred.Taken {
		t.Error("should predict taken after training")
	}
	if !pred.TargetKnown || pred.Target != 42 {
		t.Errorf("BTB should supply target 42, got %+v", pred)
	}
}

func TestLearnsAlwaysNotTakenBranch(t *testing.T) {
	p := New(bimodal())
	train(p, 100, isa.BEQ, false, 0, 10)
	if pred := p.Predict(100, isa.BEQ, false); pred.Taken {
		t.Error("should predict not-taken after training")
	}
}

func TestInitialPredictionIsNotTaken(t *testing.T) {
	p := New(DefaultConfig())
	if pred := p.Predict(500, isa.BEQ, false); pred.Taken {
		t.Error("cold counters should predict not-taken")
	}
}

func TestHysteresis(t *testing.T) {
	p := New(bimodal())
	train(p, 100, isa.BNE, true, 42, 10) // saturate taken
	// One not-taken outcome must not flip a saturated counter.
	pred := p.Predict(100, isa.BNE, false)
	p.Update(100, isa.BNE, false, 0, pred.Taken)
	if pred := p.Predict(100, isa.BNE, false); !pred.Taken {
		t.Error("single contrary outcome flipped a saturated counter")
	}
	// A second contrary outcome should flip it.
	p.Update(100, isa.BNE, false, 0, true)
	if pred := p.Predict(100, isa.BNE, false); pred.Taken {
		t.Error("two contrary outcomes should flip the counter")
	}
}

func TestGshareLearnsAlternatingPattern(t *testing.T) {
	// With global history, gshare should learn a strict T/NT alternation
	// that defeats a bimodal predictor.
	p := New(DefaultConfig())
	taken := false
	for i := 0; i < 512; i++ { // warm up
		taken = !taken
		pred := p.Predict(64, isa.BNE, false)
		p.Update(64, isa.BNE, taken, 99, pred.Taken != taken)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		taken = !taken
		pred := p.Predict(64, isa.BNE, false)
		if pred.Taken == taken {
			correct++
		}
		p.Update(64, isa.BNE, taken, 99, pred.Taken != taken)
	}
	if correct < 95 {
		t.Errorf("alternating pattern accuracy %d/100, want >= 95", correct)
	}
}

func TestBimodalCannotLearnAlternation(t *testing.T) {
	// Sanity check of the test above: without history the same stream
	// hovers around 50% — demonstrating the gshare history matters.
	p := New(bimodal())
	taken := false
	correct := 0
	for i := 0; i < 200; i++ {
		taken = !taken
		pred := p.Predict(64, isa.BNE, false)
		if i >= 100 && pred.Taken == taken {
			correct++
		}
		p.Update(64, isa.BNE, taken, 99, pred.Taken != taken)
	}
	if correct > 80 {
		t.Errorf("bimodal predictor should not learn alternation, got %d/100", correct)
	}
}

func TestBTBMissOnColdTakenBranch(t *testing.T) {
	p := New(DefaultConfig())
	pred := p.Predict(7, isa.BR, false)
	if !pred.Taken {
		t.Error("unconditional branches always predict taken")
	}
	if pred.TargetKnown {
		t.Error("cold BTB should not supply a target")
	}
	p.Update(7, isa.BR, true, 1234, true)
	pred = p.Predict(7, isa.BR, false)
	if !pred.TargetKnown || pred.Target != 1234 {
		t.Errorf("BTB should learn target, got %+v", pred)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	pcA := uint64(5)
	pcB := pcA + uint64(cfg.BTBEntries) // same direct-mapped slot
	p.Update(pcA, isa.BR, true, 111, true)
	p.Update(pcB, isa.BR, true, 222, true)
	if pred := p.Predict(pcA, isa.BR, false); pred.TargetKnown {
		t.Error("pcA should have been evicted by pcB")
	}
	if pred := p.Predict(pcB, isa.BR, false); !pred.TargetKnown || pred.Target != 222 {
		t.Errorf("pcB entry wrong: %+v", pred)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := New(DefaultConfig())
	p.Predict(10, isa.JSR, false) // call from 10 -> push 11
	p.Predict(20, isa.JSR, false) // nested call from 20 -> push 21
	if p.RASDepth() != 2 {
		t.Fatalf("RAS depth %d, want 2", p.RASDepth())
	}
	pred := p.Predict(30, isa.JMP, true)
	if !pred.TargetKnown || pred.Target != 21 {
		t.Errorf("first return should predict 21, got %+v", pred)
	}
	pred = p.Predict(31, isa.JMP, true)
	if !pred.TargetKnown || pred.Target != 11 {
		t.Errorf("second return should predict 11, got %+v", pred)
	}
	if pred := p.Predict(32, isa.JMP, true); pred.TargetKnown {
		t.Error("empty RAS should not supply a target")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 2
	p := New(cfg)
	p.Predict(10, isa.JSR, false) // push 11
	p.Predict(20, isa.JSR, false) // push 21
	p.Predict(30, isa.JSR, false) // push 31, dropping 11
	if pred := p.Predict(0, isa.JMP, true); pred.Target != 31 {
		t.Errorf("top of RAS should be 31, got %+v", pred)
	}
	if pred := p.Predict(1, isa.JMP, true); pred.Target != 21 {
		t.Errorf("next should be 21, got %+v", pred)
	}
	if pred := p.Predict(2, isa.JMP, true); pred.TargetKnown {
		t.Error("oldest entry should have been dropped")
	}
}

func TestComputedJMPNeverInstallsInBTB(t *testing.T) {
	// JMP targets vary; a cached target would be served stale for a
	// different dynamic target.
	p := New(DefaultConfig())
	p.Update(50, isa.JMP, true, 777, true)
	pred := p.Predict(50, isa.JMP, false)
	if pred.TargetKnown {
		t.Error("computed JMP should not hit BTB")
	}
}

func TestIndirectBTBLastTargetPrediction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IndirectBTB = true
	p := New(cfg)
	p.Update(50, isa.JMP, true, 777, true)
	pred := p.Predict(50, isa.JMP, false)
	if !pred.TargetKnown || pred.Target != 777 {
		t.Errorf("last-target predictor should serve 777: %+v", pred)
	}
	// A monomorphic indirect jump becomes perfectly predictable; a
	// changing target serves the previous one (the last-target policy).
	p.Update(50, isa.JMP, true, 888, true)
	if pred := p.Predict(50, isa.JMP, false); pred.Target != 888 {
		t.Errorf("should serve the most recent target: %+v", pred)
	}
}

func TestStatsCount(t *testing.T) {
	p := New(DefaultConfig())
	pred := p.Predict(9, isa.BEQ, false)
	p.Update(9, isa.BEQ, true, 3, pred.Taken != true)
	if p.Lookups != 1 {
		t.Errorf("Lookups = %d", p.Lookups)
	}
	if p.DirMisses != 1 {
		t.Errorf("DirMisses = %d (cold predictor must mispredict a taken branch)", p.DirMisses)
	}
	p.Update(10, isa.BR, true, 3, true)
	if p.TgtMisses != 1 {
		t.Errorf("TgtMisses = %d", p.TgtMisses)
	}
}

func TestBadConfigsFallBackToDefaults(t *testing.T) {
	p := New(Config{})
	if len(p.pht) != 1<<18 || len(p.btbTag) != 1024 || len(p.ras) != 16 {
		t.Error("zero config should fall back to defaults")
	}
	// History longer than the index is clamped.
	p = New(Config{IndexBits: 4, HistoryBits: 30, BTBEntries: 1, RASEntries: 1})
	if p.cfg.HistoryBits != 4 {
		t.Errorf("HistoryBits = %d, want clamped to 4", p.cfg.HistoryBits)
	}
}

func TestPredictDoesNotTrain(t *testing.T) {
	p := New(bimodal())
	for i := 0; i < 100; i++ {
		p.Predict(100, isa.BNE, false)
	}
	if pred := p.Predict(100, isa.BNE, false); pred.Taken {
		t.Error("Predict alone must not move counters")
	}
}

// TestResetEqualsNew drives seeded random branch traffic through
// predictors of several geometries — every branch kind, so the tables,
// history, return stack and all three counters move — and requires
// Reset to leave each exactly equal to a fresh New of the same config.
// Simulation reuses pooled predictors through Reset, so any state it
// missed would leak from one session into the next.
func TestResetEqualsNew(t *testing.T) {
	ops := []isa.Op{isa.BEQ, isa.BNE, isa.BR, isa.JSR, isa.JMP}
	cfgs := []Config{
		DefaultConfig(),
		bimodal(),
		{IndexBits: 12, HistoryBits: 8, BTBEntries: 64, RASEntries: 4, IndirectBTB: true},
		{}, // falls back to the defaults
	}
	for i, cfg := range cfgs {
		rng := rand.New(rand.NewPCG(uint64(i), 17))
		p := New(cfg)
		for n := 0; n < 20000; n++ {
			pc := rng.Uint64N(4096)
			op := ops[rng.IntN(len(ops))]
			isReturn := op == isa.JMP && rng.IntN(2) == 0
			pred := p.Predict(pc, op, isReturn)
			taken := op != isa.BEQ && op != isa.BNE || rng.IntN(3) > 0
			target := rng.Uint64N(4096)
			p.Update(pc, op, taken, target, pred.Taken != taken || !pred.TargetKnown || pred.Target != target)
		}
		if p.Lookups == 0 || p.DirMisses == 0 || p.TgtMisses == 0 || p.RASDepth() == 0 {
			t.Fatalf("config %d: traffic left state untouched (lookups %d, dir %d, tgt %d, ras %d)",
				i, p.Lookups, p.DirMisses, p.TgtMisses, p.RASDepth())
		}
		p.Reset()
		if fresh := New(cfg); !reflect.DeepEqual(p, fresh) {
			t.Errorf("config %d (%+v): Reset differs from New", i, cfg)
		}
	}
}
