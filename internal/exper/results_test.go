package exper

import (
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sample"
)

// TestResultBudgetBoundsMemory: memoized results past the result budget
// leave memory, least recently used first. A request for an evicted
// result simulates again without a store and reads through the store
// with one; a resident result is still a memory hit.
func TestResultBudgetBoundsMemory(t *testing.T) {
	ctx := context.Background()
	b := bench(t, "untst")
	cfgs := make([]pipeline.Config, 6)
	for i := range cfgs {
		cfgs[i] = pipeline.DefaultConfig()
		cfgs[i].PRegs = 512 + 8*i
	}
	for _, withStore := range []bool{false, true} {
		r := NewRunner(2)
		if withStore {
			r.SetStore(openStore(t))
		}
		if _, err := r.Run(ctx, cfgs[0], b, 1); err != nil {
			t.Fatal(err)
		}
		one := int64(r.Stats().ResultBytes)
		if one == 0 {
			t.Fatal("a memoized result charges no bytes")
		}
		budget := 3*one + one/2 // room for three results
		r.resultLRU.SetBudget(budget)
		for _, cfg := range cfgs[1:] {
			if _, err := r.Run(ctx, cfg, b, 1); err != nil {
				t.Fatal(err)
			}
		}
		st := r.Stats()
		if int64(st.ResultBytes) > budget || int64(st.ResultBytes) < 3*one {
			t.Errorf("store %v: %d result bytes resident, want three results (%d each) within %d", withStore, st.ResultBytes, one, budget)
		}
		if _, err := r.Run(ctx, cfgs[len(cfgs)-1], b, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(ctx, cfgs[0], b, 1); err != nil {
			t.Fatal(err)
		}
		after := r.Stats()
		if after.MemHits != st.MemHits+1 {
			t.Errorf("store %v: the most recent result was not a memory hit", withStore)
		}
		wantSims, wantStore := st.Simulations+1, st.StoreHits
		if withStore {
			wantSims, wantStore = st.Simulations, st.StoreHits+1
		}
		if after.Simulations != wantSims || after.StoreHits != wantStore {
			t.Errorf("store %v: the evicted result cost %d simulations and %d store hits, want %d and %d",
				withStore, after.Simulations-st.Simulations, after.StoreHits-st.StoreHits,
				wantSims-st.Simulations, wantStore-st.StoreHits)
		}
	}
}

// TestPlanChargesSharedWarming: the shared functional warming that
// sampled runs record in a cached plan counts against the trace budget.
// A machine of a new front-end geometry records warming and grows
// TraceBytes; one of a geometry already recorded only resumes it.
func TestPlanChargesSharedWarming(t *testing.T) {
	ctx := context.Background()
	b := bench(t, "mcf")
	sc := sample.Config{Warmup: 50, Window: 100, TargetWindows: 6}
	r := NewRunner(2)
	if _, err := r.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sc); err != nil {
		t.Fatal(err)
	}
	one := r.Stats()
	if one.WarmBuilds == 0 {
		t.Fatal("no window warmed: the test exercises nothing")
	}

	sameFront := pipeline.DefaultConfig().Baseline()
	if _, err := r.RunSampled(ctx, sameFront, b, 1, sc); err != nil {
		t.Fatal(err)
	}
	same := r.Stats()
	if same.TraceBytes != one.TraceBytes {
		t.Errorf("a machine of a recorded geometry moved the trace bytes from %d to %d", one.TraceBytes, same.TraceBytes)
	}

	otherFront := pipeline.DefaultConfig()
	otherFront.Name = "other-front-end"
	otherFront.Caches.L1D.SizeB = 8 << 10
	if _, err := r.RunSampled(ctx, otherFront, b, 1, sc); err != nil {
		t.Fatal(err)
	}
	other := r.Stats()
	if other.WarmBuilds == same.WarmBuilds {
		t.Fatal("the second geometry recorded no warming")
	}
	if other.TraceBytes <= same.TraceBytes {
		t.Errorf("recording a second geometry's warming left the trace bytes at %d (was %d)", other.TraceBytes, same.TraceBytes)
	}
	t.Logf("trace bytes: %d after one geometry, %d after two", same.TraceBytes, other.TraceBytes)
}
