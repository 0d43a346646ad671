package exper

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sample"
)

// sweepConfigs builds n distinct machine configurations (a synthetic
// config axis like Figure 8's) for plan-sharing tests.
func sweepConfigs(t *testing.T, n int) []pipeline.Config {
	t.Helper()
	cfgs := make([]pipeline.Config, n)
	for i := range cfgs {
		cfg := pipeline.DefaultConfig()
		cfg.WindowSize = 64 + 4*i
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// TestSampledSweepSharesPlan: a multi-config sampled sweep cell builds
// the window plan (fast-forward + checkpoints) exactly once, and the
// estimates are identical to the planless path for any worker count.
func TestSampledSweepSharesPlan(t *testing.T) {
	b := bench(t, "mgd")
	sc := sample.DefaultConfig()
	cfgs := sweepConfigs(t, 6)

	r := NewRunner(2)
	for _, cfg := range cfgs {
		if _, err := r.RunSampled(context.Background(), cfg, b, 1, sc); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.PlanBuilds != 1 {
		t.Errorf("PlanBuilds = %d, want 1 (one fast-forward per sampled sweep cell)", st.PlanBuilds)
	}
	if st.PlanHits != 5 {
		t.Errorf("PlanHits = %d, want 5", st.PlanHits)
	}

	// Worker count and plan caching must not leak into the estimate:
	// compare against a planless engine with a different worker count.
	planless := NewRunner(2)
	planless.SetTraceBudget(0)
	scw := sc
	scw.Workers = 4
	got, err := r.RunSampled(context.Background(), cfgs[0], b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := planless.RunSampled(context.Background(), cfgs[0], b, 1, scw)
	if err != nil {
		t.Fatal(err)
	}
	g, w := *got, *want
	g.Sampling.Workers, w.Sampling.Workers = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("planned estimate differs from planless estimate:\nplanned  %+v\nplanless %+v", g, w)
	}
}

// TestTraceBudgetTooSmall: a plan larger than the budget is built,
// used and not retained — the estimate matches a planless engine's, and
// the next configuration builds the plan again.
func TestTraceBudgetTooSmall(t *testing.T) {
	r := NewRunner(2)
	r.SetTraceBudget(1024) // smaller than any plan with a checkpoint
	planless := NewRunner(2)
	planless.SetTraceBudget(0)
	b := bench(t, "mgd")
	sc := sample.DefaultConfig()
	cfg := pipeline.DefaultConfig()

	got, err := r.RunSampled(context.Background(), cfg, b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := planless.RunSampled(context.Background(), cfg, b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("an over-budget plan produced a different estimate")
	}
	if st := r.Stats(); st.PlanBuilds != 1 || st.TraceBytes != 0 {
		t.Errorf("PlanBuilds = %d, TraceBytes = %d; want 1 build and nothing resident", st.PlanBuilds, st.TraceBytes)
	}
	if _, err := r.RunSampled(context.Background(), cfg.Baseline(), b, 1, sc); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.PlanBuilds != 2 || st.PlanHits != 0 {
		t.Errorf("PlanBuilds = %d, PlanHits = %d; want 2 builds and no hit for an unretained plan", st.PlanBuilds, st.PlanHits)
	}
}

// TestSetTraceBudgetReleases: a zero plan budget frees the resident
// plans, and later sampled runs build their plans through the same
// memo (each build counted) without retaining them.
func TestSetTraceBudgetReleases(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "mgd")
	sc := sample.DefaultConfig()
	if _, err := r.RunSampled(context.Background(), pipeline.DefaultConfig(), b, 1, sc); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TraceBytes == 0 || st.PlanBuilds != 1 {
		t.Fatalf("after a sampled run: PlanBuilds = %d, TraceBytes = %d; want a resident plan", st.PlanBuilds, st.TraceBytes)
	}
	r.SetTraceBudget(0)
	if st := r.Stats(); st.TraceBytes != 0 {
		t.Errorf("TraceBytes = %d after disabling, want 0", st.TraceBytes)
	}
	if _, err := r.RunSampled(context.Background(), pipeline.DefaultConfig().Baseline(), b, 1, sc); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TraceBytes != 0 || st.PlanBuilds != 2 || st.PlanHits != 0 {
		t.Errorf("after disabling: PlanBuilds = %d, PlanHits = %d, TraceBytes = %d; want a counted, unretained build",
			st.PlanBuilds, st.PlanHits, st.TraceBytes)
	}
}
