package exper

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// mustRun is the error-fatal shim for tests that probe caching, not
// failure handling.
func mustRun(t *testing.T, r *Runner, cfg pipeline.Config, b *workloads.Benchmark, scale int) *pipeline.Result {
	t.Helper()
	res, err := r.Run(context.Background(), cfg, b, scale)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func bench(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing from registry", name)
	}
	return b
}

func TestRunMemoizes(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "mcf")
	cfg := pipeline.DefaultConfig()

	r1 := mustRun(t, r, cfg, b, 1)
	r2 := mustRun(t, r, cfg, b, 1)
	if r1 != r2 {
		t.Error("identical requests should return the same cached *Result")
	}
	if st := r.Stats(); st.Simulations != 1 || st.MemHits != 1 {
		t.Errorf("stats = %+v, want 1 simulation and 1 hit", st)
	}
	if r1.Scale != 1 || r1.ConfigKey != cfg.Key() || r1.Program != "mcf" {
		t.Errorf("result not self-describing: scale=%d key=%q program=%q",
			r1.Scale, r1.ConfigKey, r1.Program)
	}
}

func TestKeyIgnoresDisplayName(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "untst")
	cfg := pipeline.DefaultConfig()
	renamed := cfg
	renamed.Name = "same-machine-other-label"

	if mustRun(t, r, cfg, b, 1) != mustRun(t, r, renamed, b, 1) {
		t.Error("configs differing only in Name should share one simulation")
	}
	if st := r.Stats(); st.Simulations != 1 || st.MemHits != 1 {
		t.Errorf("stats = %+v, want dedup across display names", st)
	}
}

func TestDistinctConfigsDoNotCollide(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "untst")
	cfg := pipeline.DefaultConfig()
	base := cfg.Baseline()

	if mustRun(t, r, cfg, b, 1) == mustRun(t, r, base, b, 1) {
		t.Error("different machines must not share a cache slot")
	}
	if st := r.Stats(); st.Simulations != 2 || st.MemHits != 0 {
		t.Errorf("stats = %+v, want 2 distinct simulations", st)
	}
}

func TestZeroConfigNormalizesToDefault(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "untst")
	if mustRun(t, r, pipeline.Config{}, b, 1) != mustRun(t, r, pipeline.DefaultConfig(), b, 1) {
		t.Error("zero config should normalize to the default machine's slot")
	}
}

func TestConcurrentRequestsSingleflight(t *testing.T) {
	r := NewRunner(4)
	b := bench(t, "mcf")
	cfg := pipeline.DefaultConfig()

	const callers = 16
	results := make([]*pipeline.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(context.Background(), cfg, b, 1)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
	st := r.Stats()
	if st.Simulations != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want 1", callers, st.Simulations)
	}
	if st.MemHits != callers-1 {
		t.Errorf("hits = %d, want %d", st.MemHits, callers-1)
	}
}

func TestMatrixDedupsAcrossCells(t *testing.T) {
	r := NewRunner(0)
	benches := []*workloads.Benchmark{bench(t, "mcf"), bench(t, "untst")}
	def := pipeline.DefaultConfig()
	renamed := def
	renamed.Name = "alias"
	cfgs := []pipeline.Config{def.Baseline(), def, renamed}

	cells, err := r.Matrix(context.Background(), benches, cfgs, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || len(cells[0]) != 3 {
		t.Fatalf("cells shape %dx%d, want 2x3", len(cells), len(cells[0]))
	}
	for i := range benches {
		if cells[i][1] != cells[i][2] {
			t.Errorf("bench %d: aliased default config should share a result", i)
		}
	}
	if st := r.Stats(); st.Simulations != 4 || st.MemHits != 2 {
		t.Errorf("stats = %+v, want 4 simulations (2 benches x 2 unique configs) and 2 hits", st)
	}
}

func TestInstCountMatchesScaleNormalization(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "untst")
	ctx := context.Background()
	n0, err := r.InstCount(ctx, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := r.InstCount(ctx, b, b.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if n0 != nd {
		t.Errorf("scale 0 count %d != default-scale count %d", n0, nd)
	}
	n1, err := r.InstCount(ctx, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Error("scale-1 instruction count should be positive")
	}
}

// TestSweepDeterministicAcrossParallelism runs the same spec under a
// serial and a wide pool and requires byte-identical tables: memoization
// keys on content, and the simulator is deterministic, so pool width
// must not leak into results.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	spec := &SweepSpec{
		Title:        "determinism probe",
		Benchmarks:   []string{"mcf", "untst", "gcc"},
		Scale:        1,
		PerBenchmark: true,
		Variants: []VariantSpec{
			{Label: "opt"},
			{Label: "sched16", Set: map[string]any{"SchedEntries": float64(16)}},
			{Label: "feedback", Set: map[string]any{"Opt.Mode": "feedback-only"}},
		},
	}
	var tables []string
	for _, parallelism := range []int{1, 8} {
		sr, err := NewRunner(parallelism).Sweep(context.Background(), spec)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		var buf bytes.Buffer
		if err := sr.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, buf.String())
	}
	if tables[0] != tables[1] {
		t.Errorf("Parallelism=1 and Parallelism=8 tables differ:\n%s\nvs\n%s", tables[0], tables[1])
	}
}
