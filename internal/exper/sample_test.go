package exper

// Engine-level sampled-mode tests: sampled and exact results must live
// in disjoint cache universes, memoize independently, and flow through
// the same matrix/sweep formatting.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

func testBench(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing from registry", name)
	}
	return b
}

// TestSampledAndExactDoNotCollide runs the same (config, benchmark,
// scale) both ways and checks the results are cached separately: the
// exact result must stay cycle-exact, the sampled one marked Sampled,
// and repeated requests must hit their own caches.
func TestSampledAndExactDoNotCollide(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(2)
	b := testBench(t, "tst")
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConfig()

	exact, err := r.Run(ctx, cfg, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := r.RunSampled(ctx, cfg, b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Sampled {
		t.Error("exact result marked Sampled")
	}
	est := sampled.Estimate()
	if !est.Sampled {
		t.Error("sampled estimate not marked Sampled")
	}
	if est.Cycles == exact.Cycles {
		t.Log("note: estimate exactly equals exact cycles (possible but unlikely)")
	}

	st := r.Stats()
	exact2, err := r.Run(ctx, cfg, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampled2, err := r.RunSampled(ctx, cfg, b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	st2 := r.Stats()
	if exact2 != exact {
		t.Error("repeat exact request did not return the cached result")
	}
	if sampled2 != sampled {
		t.Error("repeat sampled request did not return the cached result")
	}
	if st2.Simulations != st.Simulations {
		t.Errorf("repeat requests re-simulated: %d -> %d", st.Simulations, st2.Simulations)
	}
	if st2.MemHits != st.MemHits+2 {
		t.Errorf("cache hits went %d -> %d, want +2", st.MemHits, st2.MemHits)
	}
}

// TestSampledKeyIncludesRegime: two different sampling regimes must not
// share a cache slot.
func TestSampledKeyIncludesRegime(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(2)
	b := testBench(t, "tst")
	cfg := pipeline.DefaultConfig()

	a, err := r.RunSampled(ctx, cfg, b, 1, sample.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wide := sample.DefaultConfig()
	wide.Window *= 2
	c, err := r.RunSampled(ctx, cfg, b, 1, wide)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different sampling regimes shared one cached result")
	}
	if reflect.DeepEqual(a.Windows, c.Windows) {
		t.Error("different regimes produced identical window series")
	}
}

// TestMatrixSampledShape: Matrix under a sampling regime returns
// estimates shaped like exact Matrix output, each cell tagged Sampled
// with the effective scale.
func TestMatrixSampledShape(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(2)
	benches := []*workloads.Benchmark{testBench(t, "untst"), testBench(t, "tst")}
	cfgs := []pipeline.Config{pipeline.DefaultConfig().Baseline(), pipeline.DefaultConfig()}

	sc := sample.DefaultConfig()
	cells, err := r.Matrix(ctx, benches, cfgs, 1, &sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(benches) {
		t.Fatalf("got %d rows, want %d", len(cells), len(benches))
	}
	for i, row := range cells {
		if len(row) != len(cfgs) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(cfgs))
		}
		for j, res := range row {
			if res == nil {
				t.Fatalf("cell (%d,%d) nil", i, j)
			}
			if !res.Sampled {
				t.Errorf("cell (%d,%d) not marked Sampled", i, j)
			}
			if res.Scale != 1 {
				t.Errorf("cell (%d,%d) Scale = %d, want 1", i, j, res.Scale)
			}
			if res.Retired == 0 || res.Cycles == 0 {
				t.Errorf("cell (%d,%d) empty: %+v", i, j, res)
			}
		}
	}
}

// TestSweepSampled executes a small spec in sampled mode end to end.
func TestSweepSampled(t *testing.T) {
	spec := &SweepSpec{
		Title:      "sampled sweep",
		Benchmarks: []string{"tst"},
		Scale:      1,
		Variants:   []VariantSpec{{Label: "default"}},
	}
	r := NewRunner(2)
	sr, err := r.SweepSampled(context.Background(), spec, sample.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Speedup(0, 0); got <= 0 {
		t.Errorf("sampled sweep speedup = %v, want positive", got)
	}
	if !sr.Cells[0][0].Sampled || !sr.Cells[0][1].Sampled {
		t.Error("sampled sweep cells not marked Sampled")
	}
}

// TestRunSampledUsesSharedInstCount: two configs sampled over one
// shared plan agree on the program's instruction count, and it is the
// count InstCount's own emulation finds.
func TestRunSampledUsesSharedInstCount(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(2)
	b := testBench(t, "untst")
	base, err := r.RunSampled(ctx, pipeline.DefaultConfig().Baseline(), b, 1, sample.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := r.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sample.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalInsts != opt.TotalInsts {
		t.Errorf("configs disagree on TotalInsts: %d vs %d", base.TotalInsts, opt.TotalInsts)
	}
	n, err := r.InstCount(ctx, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != base.TotalInsts {
		t.Errorf("InstCount %d != sampled TotalInsts %d", n, base.TotalInsts)
	}
}

// TestColdRunSampledEmulatesOnce: a cold sampled run's only emulation
// is its plan's pass, and a second process whose plan comes from the
// store emulates nothing.
func TestColdRunSampledEmulatesOnce(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := testBench(t, "mgd")
	r := storeRunner(st)
	res, err := r.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sample.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().PlanBuilds; got != 1 {
		t.Fatalf("%d plans built, want 1", got)
	}

	// Another process: a different machine misses the result cache but
	// loads the plan.
	r2 := storeRunner(st)
	res2, err := r2.RunSampled(ctx, pipeline.DefaultConfig().Baseline(), b, 1, sample.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s := r2.Stats(); s.PlanStoreHits != 1 || s.PlanBuilds != 0 {
		t.Fatalf("second process: %d plan store hits, %d builds; want 1, 0", s.PlanStoreHits, s.PlanBuilds)
	}
	if res2.TotalInsts != res.TotalInsts {
		t.Fatalf("a stored plan counts %d instructions, the built one %d", res2.TotalInsts, res.TotalInsts)
	}
}
