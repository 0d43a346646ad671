package pipeline_test

// Front-end pooling tests: sessions and warmers that reuse pooled,
// reset caches and predictors must produce exactly the results of ones
// that build their own, under concurrency; and a kept Result must not
// keep its session alive.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// poolPrograms is every built-in at scale 1 plus every scenario family.
func poolPrograms(t *testing.T) []*emu.Program {
	t.Helper()
	var out []*emu.Program
	for _, b := range workloads.All() {
		out = append(out, b.Program(1))
	}
	for _, fam := range scenario.FamilyNames() {
		spec := &scenario.Spec{Seed: 3, Scenarios: []scenario.ScenarioSpec{{Family: fam}}}
		scens, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Assemble(scens[0].Name, scens[0].Source(1))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// poolConfigs returns three machines: the paper's optimized and baseline
// machines, which share one front-end geometry (and so one pool), and a
// machine with a smaller predictor and L2, which has a pool of its own.
func poolConfigs() []pipeline.Config {
	small := pipeline.DefaultConfig()
	small.Name = "small-front-end"
	small.BPred.IndexBits, small.BPred.HistoryBits = 14, 14
	small.Caches.L2.SizeB = 256 << 10
	return []pipeline.Config{pipeline.DefaultConfig(), pipeline.DefaultConfig().Baseline(), small}
}

// sampleAll runs every (program, config) pair through sample.RunPlanned,
// all pairs concurrently, and returns each Result's JSON encoding.
func sampleAll(t *testing.T, progs []*emu.Program, plans []*sample.Plan, sc sample.Config) [][]byte {
	t.Helper()
	cfgs := poolConfigs()
	out := make([][]byte, len(progs)*len(cfgs))
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := i / len(cfgs)
			r, err := sample.RunPlanned(context.Background(), cfgs[i%len(cfgs)], progs[p], sc, plans[p])
			if err == nil {
				out[i], err = json.Marshal(r)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s on %s: %v", progs[i/len(cfgs)].Name, cfgs[i%len(cfgs)].Name, err)
		}
	}
	return out
}

// exactAll runs every (program, config) pair as one whole-program
// session, all pairs concurrently, and returns each Result's JSON.
func exactAll(t *testing.T, progs []*emu.Program) [][]byte {
	t.Helper()
	cfgs := poolConfigs()
	out := make([][]byte, len(progs)*len(cfgs))
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := pipeline.New(cfgs[i%len(cfgs)], progs[i/len(cfgs)])
			if err == nil {
				var r *pipeline.Result
				if r, err = s.Run(context.Background(), pipeline.RunOpts{}); err == nil {
					out[i], err = json.Marshal(r)
				}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s on %s: %v", progs[i/len(cfgs)].Name, cfgs[i%len(cfgs)].Name, err)
		}
	}
	return out
}

// TestPooledFrontEndsMatchFresh is the pooling equivalence gate: every
// built-in and scenario family, sampled on three machines at once (two
// sharing a front-end geometry), must give byte-identical Results
// whether each window and session builds its own front-end and
// back-end or takes reset ones from the pools; whole-program sessions
// of a few programs must match too. Each pass gets plans of its own,
// so the pooled pass records its shared warming on pooled front-ends
// rather than resuming what the fresh pass recorded (internal/sample
// checks shared warming against private warming). Run under -race it
// also checks that no pooled front-end or back-end is ever shared by
// two running sessions.
func TestPooledFrontEndsMatchFresh(t *testing.T) {
	progs := poolPrograms(t)
	// Short windows and a small target keep every program sampled (no
	// exact fallback) and the test fast under -race.
	sc := sample.Config{Warmup: 50, Window: 100, TargetWindows: 6, Workers: 2}
	build := func() []*sample.Plan {
		plans := make([]*sample.Plan, len(progs))
		for i, p := range progs {
			plan, err := sample.BuildPlan(context.Background(), p, sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = plan
		}
		return plans
	}
	plans := build()
	sampled := 0
	for _, plan := range plans {
		if len(plan.Windows) > 0 {
			sampled++
		}
	}
	if sampled < len(progs)/2 {
		t.Fatalf("only %d of %d programs get sampled windows; the test would not exercise warmers", sampled, len(progs))
	}

	exactProgs := progs[:4]
	pipeline.SetPooling(false)
	fresh := sampleAll(t, progs, plans, sc)
	freshExact := exactAll(t, exactProgs)
	pipeline.SetPooling(true)
	plans = build()
	pooled := sampleAll(t, progs, plans, sc)
	pooledExact := exactAll(t, exactProgs)
	// A second pooled round takes only front-ends and back-ends the
	// first one dirtied, and resumes the warming it recorded.
	again := sampleAll(t, progs, plans, sc)
	againExact := exactAll(t, exactProgs)
	fresh = append(fresh, freshExact...)
	pooled = append(pooled, pooledExact...)
	again = append(again, againExact...)

	cfgs := poolConfigs()
	for i := range fresh {
		label := fmt.Sprintf("%s on %s", progs[i/len(cfgs)%len(progs)].Name, cfgs[i%len(cfgs)].Name)
		if i >= len(progs)*len(cfgs) {
			label += " (whole program)"
		}
		for round, got := range [][]byte{pooled[i], again[i]} {
			if d := firstDiff(got, fresh[i]); d >= 0 {
				lo := max(d-40, 0)
				t.Errorf("%s: pooled round %d differs from fresh at byte %d:\nfresh  …%s\npooled …%s",
					label, round+1, d, fresh[i][lo:min(d+40, len(fresh[i]))], got[lo:min(d+40, len(got))])
			}
		}
	}
}

// firstDiff returns the first offset at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestResultDoesNotPinSession: Run returns a Result of its own, so a
// caller that keeps the Result (the engine memoizes exact results)
// lets the Session — optimizer tables, pipeline arena — be collected.
func TestResultDoesNotPinSession(t *testing.T) {
	s, err := pipeline.New(pipeline.DefaultConfig(), benchProgram(t, "mcf").Program(1))
	if err != nil {
		t.Fatal(err)
	}
	alive := weak.Make(s)
	res, err := s.Run(context.Background(), pipeline.RunOpts{Interval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s = nil
	runtime.GC()
	runtime.GC()
	if alive.Value() != nil {
		t.Error("the Session survived garbage collection while only its Result was retained")
	}
	if res.Retired == 0 || len(res.Intervals) == 0 {
		t.Errorf("retained Result lost its contents: %+v", res)
	}
}

// TestSeedSpendsWarmer: Seed hands the warmer's front-end to exactly one
// session. A second Seed must fail rather than quietly build a session
// on cold state, and a halted machine cannot be seeded.
func TestSeedSpendsWarmer(t *testing.T) {
	prog := benchProgram(t, "gcc").Program(1)
	w := pipeline.NewWarmer(pipeline.DefaultConfig())
	m := emu.New(prog)
	m.RunObserved(500, w.Observe)
	if _, err := w.Seed(prog, m); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seed(prog, m); err == nil {
		t.Error("a spent warmer seeded a second session")
	}

	done := emu.New(prog)
	done.Run(0)
	if _, err := pipeline.NewWarmer(pipeline.DefaultConfig()).Seed(prog, done); err == nil {
		t.Error("a halted machine was seeded")
	}
}
