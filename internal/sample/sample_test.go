package sample

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func prog(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing from registry", name)
	}
	return b
}

func TestConfigNormalize(t *testing.T) {
	if got := (Config{}).Normalize(); got != DefaultConfig() {
		t.Errorf("zero Config normalized to %+v, want DefaultConfig", got)
	}
	c := Config{Warmup: 100, Period: 5000}.Normalize()
	if c.Warmup != 100 || c.Period != 5000 {
		t.Errorf("explicit fields clobbered: %+v", c)
	}
	if c.Window == 0 {
		t.Error("zero Window not defaulted")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Period: 1000},                          // Window zero
		{Period: 500, Warmup: 400, Window: 300}, // windows overlap
		{Window: 100},                           // auto period, no target
		{Window: 100, TargetWindows: 5, MaxWindows: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigKeySeparatesRegimes(t *testing.T) {
	a := DefaultConfig()
	b := a
	b.Window++
	if a.Key() == b.Key() {
		t.Error("different regimes share a key")
	}
	c := a
	c.ColdStart = true
	if a.Key() == c.Key() {
		t.Error("cold and warmed regimes share a key")
	}
}

func TestPeriodForScaling(t *testing.T) {
	c := DefaultConfig()
	detail := c.Warmup + c.Window
	if p := c.periodFor(detail * 2); p != 0 {
		t.Errorf("short program got period %d, want 0 (exact fallback)", p)
	}
	// Large program: target-bound.
	if p := c.periodFor(1_000_000); p != 1_000_000/uint64(c.TargetWindows) {
		t.Errorf("large-program period %d, want total/target", p)
	}
	// Mid program: floored by minSpacing, capped by minWindowCount.
	p := c.periodFor(20 * detail)
	if p < detail {
		t.Errorf("period %d below window extent %d", p, detail)
	}
	if n := 20 * detail / p; n < minWindowCount {
		t.Errorf("only %d windows fit, want >= %d", n, minWindowCount)
	}
}

// TestSampledEstimateWithinTolerance is the estimator's accuracy
// contract on real kernels at small scale: estimated IPC and speedup
// land near the exact values.
func TestSampledEstimateWithinTolerance(t *testing.T) {
	ctx := context.Background()
	base := pipeline.DefaultConfig().Baseline()
	opt := pipeline.DefaultConfig()
	for _, name := range []string{"mgd", "tst"} {
		t.Run(name, func(t *testing.T) {
			p := prog(t, name).Program(1)
			exact := func(cfg pipeline.Config) *pipeline.Result {
				s, err := pipeline.New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				r, err := s.Run(ctx, pipeline.RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			eb, eo := exact(base), exact(opt)
			sb, err := Run(ctx, base, p, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			so, err := Run(ctx, opt, p, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if sb.TotalInsts != eb.Retired {
				t.Errorf("TotalInsts %d != exact retired %d", sb.TotalInsts, eb.Retired)
			}
			relErr := func(est, ex float64) float64 { return math.Abs(est-ex) / ex }
			if e := relErr(so.EstIPC(), eo.IPC()); e > 0.10 {
				t.Errorf("optimized IPC estimate off by %.1f%% (est %.3f, exact %.3f)", 100*e, so.EstIPC(), eo.IPC())
			}
			exSp := eo.SpeedupOver(eb)
			if e := relErr(so.SpeedupOver(sb), exSp); e > 0.05 {
				t.Errorf("speedup estimate off by %.1f%% (est %.3f, exact %.3f)",
					100*e, so.SpeedupOver(sb), exSp)
			}
		})
	}
}

// TestSampledRunDeterministic pins that the estimator is a pure
// function of (config, program, regime).
func TestSampledRunDeterministic(t *testing.T) {
	ctx := context.Background()
	p := prog(t, "mcf").Program(1)
	a, err := Run(ctx, pipeline.DefaultConfig(), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, pipeline.DefaultConfig(), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two sampled runs of the same inputs differ")
	}
}

// TestExactFallbackForShortPrograms: a program shorter than the
// sampling threshold is simulated exactly and the "estimate" is exact.
func TestExactFallbackForShortPrograms(t *testing.T) {
	ctx := context.Background()
	cfg := pipeline.DefaultConfig()
	p := prog(t, "eon").Program(1) // 500 dynamic instructions
	r, err := Run(ctx, cfg, p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.ExactFallback {
		t.Fatal("short program did not fall back to exact simulation")
	}
	s, err := pipeline.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Run(ctx, pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.EstCycles != exact.Cycles {
		t.Errorf("fallback EstCycles %d != exact %d", r.EstCycles, exact.Cycles)
	}
	if est := r.Estimate(); est.Cycles != exact.Cycles || est.Retired != exact.Retired {
		t.Errorf("fallback Estimate (%d cyc, %d ret) != exact (%d, %d)",
			est.Cycles, est.Retired, exact.Cycles, exact.Retired)
	}
}

// TestEstimatePreservesRatios: extrapolating window events by a uniform
// factor must preserve the derived percentages the harness reports.
func TestEstimatePreservesRatios(t *testing.T) {
	// Scale 8: at scale 1 untst is too short to sample and the check
	// below would never run.
	p := prog(t, "untst").Program(8)
	r, err := Run(context.Background(), pipeline.DefaultConfig(), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.ExactFallback {
		t.Fatal("program too short to sample: the ratio check would not run")
	}
	est := r.Estimate()
	if !est.Sampled {
		t.Error("Estimate not marked Sampled")
	}
	var win pipeline.Counts
	for _, w := range r.Windows {
		win = win.Add(w.Counts)
	}
	if win.Opt.Renamed == 0 || win.Opt.EarlyExecuted == 0 {
		t.Fatal("no optimizer events measured: the ratio check would not run")
	}
	want, got := win.PctEarlyExecuted(), est.PctEarlyExecuted()
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("exec-early ratio drifted under extrapolation: %.4f vs %.4f", got, want)
	}
	if est.Retired != r.TotalInsts {
		t.Errorf("Estimate.Retired = %d, want TotalInsts %d", est.Retired, r.TotalInsts)
	}
}

// TestWindowsAreDisjointAndOrdered pins the window schedule invariants.
func TestWindowsAreDisjointAndOrdered(t *testing.T) {
	p := prog(t, "tst").Program(1)
	sc := DefaultConfig()
	r, err := Run(context.Background(), pipeline.DefaultConfig(), p, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Windows) < 2 {
		t.Fatalf("want a window series, got %d", len(r.Windows))
	}
	if r.Period == 0 {
		t.Fatal("resolved Period not recorded")
	}
	for i, w := range r.Windows {
		if w.Index != i {
			t.Errorf("window %d has Index %d", i, w.Index)
		}
		if i > 0 {
			prev := r.Windows[i-1]
			if w.StartInst != prev.StartInst+r.Period {
				t.Errorf("window %d starts at %d, want %d (period %d)",
					i, w.StartInst, prev.StartInst+r.Period, r.Period)
			}
		}
		if w.Retired == 0 {
			t.Errorf("window %d measured nothing", i)
		}
	}
	if last := r.Windows[len(r.Windows)-1]; last.StartInst+sc.Warmup+sc.Window > r.TotalInsts {
		t.Errorf("last window [%d, +%d) runs past the program end %d",
			last.StartInst, sc.Warmup+sc.Window, r.TotalInsts)
	}
}

// TestColdStartStillEstimates: the no-warming mode works and keys
// separately (its estimates are worse, but that is the regime's
// documented trade).
func TestColdStartStillEstimates(t *testing.T) {
	p := prog(t, "tst").Program(1)
	sc := DefaultConfig()
	sc.ColdStart = true
	sc.Warmup = 2000 // cold windows need real detailed warmup
	sc.Window = 2000
	r, err := Run(context.Background(), pipeline.DefaultConfig(), p, sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.EstCycles == 0 || len(r.Windows) == 0 {
		t.Errorf("cold-start run produced no estimate: %+v", r)
	}
}

// TestResultZeroSafe guards the derived accessors on empty results.
func TestResultZeroSafe(t *testing.T) {
	var r Result
	for name, v := range map[string]float64{
		"EstIPC":   r.EstIPC(),
		"Coverage": r.Coverage(),
		"Speedup":  r.SpeedupOver(&Result{}),
	} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s on zero Result = %v, want 0", name, v)
		}
	}
	if est := r.Estimate(); est == nil || est.Cycles != 0 {
		t.Errorf("Estimate on zero Result = %+v", est)
	}
}

// TestCancellation: a canceled context aborts a sampled run promptly
// with an error wrapping ctx.Err().
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := prog(t, "mgd").Program(1)
	if _, err := Run(ctx, pipeline.DefaultConfig(), p, DefaultConfig()); err == nil {
		t.Error("sampled run ignored canceled context")
	}
}

// BenchmarkSampledFigure6 measures the sampled-simulation cost of the
// headline artifact (22 benchmarks x 2 machines at scale 4) — the
// workload behind the "under 25% of exact wall time" target.
func BenchmarkSampledFigure6(b *testing.B) {
	ctx := context.Background()
	cfgs := []pipeline.Config{pipeline.DefaultConfig().Baseline(), pipeline.DefaultConfig()}
	for i := 0; i < b.N; i++ {
		for _, bench := range workloads.All() {
			p := bench.Program(4)
			for _, cfg := range cfgs {
				if _, err := Run(ctx, cfg, p, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// TestRunPlannedWorkerCountInvariant is the parallel-sampling
// determinism gate: the same plan run with 1, 2, and 4 workers must
// produce byte-identical Results — windows are independent and merged
// by schedule index, so worker scheduling can never leak into the
// estimate.
func TestRunPlannedWorkerCountInvariant(t *testing.T) {
	b := prog(t, "tst")
	p := b.Program(1)
	cfg := pipeline.DefaultConfig()
	sc := Config{Warmup: 50, Window: 100, TargetWindows: 8}.Normalize()

	pre, err := Run(context.Background(), cfg, p, sc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(context.Background(), p, sc, pre.TotalInsts)
	if err != nil {
		t.Fatal(err)
	}
	var base *Result
	for _, workers := range []int{1, 2, 4} {
		scw := sc
		scw.Workers = workers
		r, err := RunPlanned(context.Background(), cfg, p, scw, plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Sampling records the worker count; blank it before comparing
		// the parts that must be invariant.
		r.Sampling.Workers = 0
		if base == nil {
			base = r
			continue
		}
		if !reflect.DeepEqual(base, r) {
			t.Errorf("workers=%d diverged:\nbase %+v\ngot  %+v", workers, base, r)
		}
	}
}

// TestPlanReuseMatchesRun: running a cached plan yields the same
// Result as the plan-building Run path — the engine's plan cache
// cannot change any estimate.
func TestPlanReuseMatchesRun(t *testing.T) {
	b := prog(t, "mgd")
	p := b.Program(1)
	cfg := pipeline.DefaultConfig()
	sc := DefaultConfig()

	direct, err := Run(context.Background(), cfg, p, sc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(context.Background(), p, sc, direct.TotalInsts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bytes() == 0 {
		t.Error("Plan.Bytes() = 0 for a plan holding checkpoints")
	}
	replayed, err := RunPlanned(context.Background(), cfg, p, sc, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, replayed) {
		t.Errorf("planned run diverged from Run:\ndirect   %+v\nreplayed %+v", direct, replayed)
	}
}

// TestRunPlannedRejects: a plan only runs the program it was built
// from, and nil or zero-total plans are errors.
func TestRunPlannedRejects(t *testing.T) {
	p := prog(t, "tst").Program(1)
	other := prog(t, "mgd").Program(1)
	sc := DefaultConfig()
	pre, err := Run(context.Background(), pipeline.DefaultConfig(), p, sc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(context.Background(), p, sc, pre.TotalInsts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPlanned(context.Background(), pipeline.DefaultConfig(), other, sc, plan); err == nil {
		t.Error("running a tst plan on mgd succeeded")
	}
	if _, err := RunPlanned(context.Background(), pipeline.DefaultConfig(), p, sc, nil); err == nil {
		t.Error("running a nil plan succeeded")
	}
}
