// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the simulator substrate.
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigure*/BenchmarkTable* runs the corresponding harness
// experiment (at a reduced scale so the suite completes quickly) and
// reports the headline quantity via b.ReportMetric: suite-geomean
// speedups for the figures, suite percentages for Table 3. The
// full-scale numbers recorded in EXPERIMENTS.md come from `contopt all`.
package contopt

import (
	"context"
	"io"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/exper"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// benchScale keeps the full experiment suite fast under -bench.
const benchScale = 1

// benchRun runs the pipeline and fails the benchmark on error.
func benchRun(b *testing.B, cfg pipeline.Config, prog *emu.Program) *pipeline.Result {
	b.Helper()
	s, err := pipeline.New(cfg, prog)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchOpts() harness.Options {
	return harness.Options{Scale: benchScale}
}

// runSuitePair simulates every benchmark under base and variant configs
// and returns per-suite geomean speedups.
func runSuitePair(b *testing.B, variant pipeline.Config) map[string]float64 {
	b.Helper()
	out := map[string]float64{}
	prod := map[string]float64{}
	n := map[string]int{}
	base := pipeline.DefaultConfig().Baseline()
	for _, bench := range workloads.All() {
		prog := bench.Program(benchScale)
		rb := benchRun(b, base, prog)
		rv := benchRun(b, variant, prog)
		sp := rv.SpeedupOver(rb)
		if prod[bench.Suite] == 0 {
			prod[bench.Suite] = 1
		}
		prod[bench.Suite] *= sp
		n[bench.Suite]++
	}
	for s, p := range prod {
		out[s] = math.Pow(p, 1/float64(n[s]))
	}
	return out
}

// BenchmarkTable1 measures full-program architectural emulation of the
// entire workload suite (Table 1's instruction counts).
func BenchmarkTable1(b *testing.B) {
	var insts uint64
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, bench := range workloads.All() {
			m := emu.New(bench.Program(benchScale))
			m.Run(0)
			insts += m.InstCount()
		}
	}
	b.ReportMetric(float64(insts), "insts")
}

// BenchmarkFigure6 regenerates the headline speedup comparison.
func BenchmarkFigure6(b *testing.B) {
	var sp map[string]float64
	for i := 0; i < b.N; i++ {
		sp = runSuitePair(b, pipeline.DefaultConfig())
	}
	b.ReportMetric(sp[workloads.SPECint], "SPECint-speedup")
	b.ReportMetric(sp[workloads.SPECfp], "SPECfp-speedup")
	b.ReportMetric(sp[workloads.Mediabench], "mediabench-speedup")
}

// BenchmarkTable3 regenerates the optimizer-effect percentages.
func BenchmarkTable3(b *testing.B) {
	var early, addr, lds, recov float64
	for i := 0; i < b.N; i++ {
		var sum pipeline.Counts
		for _, bench := range workloads.All() {
			sum = sum.Add(benchRun(b, pipeline.DefaultConfig(), bench.Program(benchScale)).Counts())
		}
		early, addr = sum.PctEarlyExecuted(), sum.PctAddrGen()
		lds, recov = sum.PctLoadsRemoved(), sum.PctMispredRecovered()
	}
	b.ReportMetric(early, "exec-early-%")
	b.ReportMetric(recov, "recov-mispred-%")
	b.ReportMetric(addr, "addr-gen-%")
	b.ReportMetric(lds, "lds-removed-%")
}

// BenchmarkFigure8 regenerates the machine-model study (fetch-bound and
// execution-bound variants).
func BenchmarkFigure8(b *testing.B) {
	var fbOpt, ebOpt map[string]float64
	for i := 0; i < b.N; i++ {
		fb := pipeline.DefaultConfig()
		fb.SchedEntries *= 2
		fbOpt = runSuitePair(b, fb)
		eb := pipeline.DefaultConfig()
		eb.FetchWidth *= 2
		ebOpt = runSuitePair(b, eb)
	}
	b.ReportMetric(fbOpt[workloads.SPECint], "fetchbound+opt-SPECint")
	b.ReportMetric(ebOpt[workloads.SPECint], "execbound+opt-SPECint")
}

// BenchmarkFigure9 regenerates the feedback-only comparison.
func BenchmarkFigure9(b *testing.B) {
	var fb map[string]float64
	for i := 0; i < b.N; i++ {
		fb = runSuitePair(b, pipeline.DefaultConfig().WithMode(core.ModeFeedbackOnly))
	}
	b.ReportMetric(fb[workloads.SPECint], "feedback-SPECint")
	b.ReportMetric(fb[workloads.Mediabench], "feedback-mediabench")
}

// BenchmarkFigure10 regenerates the dependence-depth sweep.
func BenchmarkFigure10(b *testing.B) {
	var d3 map[string]float64
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.Opt.DepDepth = 3
		d3 = runSuitePair(b, cfg)
	}
	b.ReportMetric(d3[workloads.Mediabench], "depth3-mediabench")
}

// BenchmarkFigure11 regenerates the optimizer-latency sweep.
func BenchmarkFigure11(b *testing.B) {
	var s4 map[string]float64
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.OptStages = 4
		s4 = runSuitePair(b, cfg)
	}
	b.ReportMetric(s4[workloads.SPECint], "optlat4-SPECint")
}

// BenchmarkFigure12 regenerates the feedback-delay sweep.
func BenchmarkFigure12(b *testing.B) {
	var d10 map[string]float64
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.FeedbackDelay = 10
		d10 = runSuitePair(b, cfg)
	}
	b.ReportMetric(d10[workloads.SPECint], "fbdelay10-SPECint")
}

// BenchmarkHarnessFigure6 exercises the full formatted experiment path
// (what `contopt figure6` runs).
func BenchmarkHarnessFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchOpts().Figure6(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the substrate ---

// BenchmarkEmulator measures raw architectural emulation speed.
func BenchmarkEmulator(b *testing.B) {
	bench, _ := workloads.ByName("mcf")
	prog := bench.Program(benchScale)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m := emu.New(prog)
		insts = m.Run(0)
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// benchPipeline measures cycle-level simulation speed for one machine
// configuration. Session construction (register file, wheel, predictor
// arrays) is hoisted out of the timed region with StopTimer/StartTimer
// so ns/op and allocs/op describe the simulation loop itself — the
// steady state that dominates any real run — not per-run setup.
func benchPipeline(b *testing.B, cfg pipeline.Config) {
	b.Helper()
	bench, _ := workloads.ByName("mcf")
	prog := bench.Program(benchScale)
	b.ResetTimer()
	var res *pipeline.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := pipeline.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err = s.Run(context.Background(), pipeline.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Retired)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkPipelineBaseline measures cycle-level simulation speed
// without the optimizer.
func BenchmarkPipelineBaseline(b *testing.B) {
	benchPipeline(b, pipeline.DefaultConfig().Baseline())
}

// BenchmarkPipelineOptimized measures cycle-level simulation speed with
// the continuous optimizer.
func BenchmarkPipelineOptimized(b *testing.B) {
	benchPipeline(b, pipeline.DefaultConfig())
}

// exactMixBenches are the built-ins of the exact perfbench sweep, two
// from each behaviour class: branchy, memory-bound, ILP-rich, mixed.
var exactMixBenches = []string{"bzp", "g721e", "gap", "eqk", "art", "msa", "twf", "g721d"}

// BenchmarkPipelineExactMix measures cycle-level simulation speed on
// the exact sweep's workload: each of exactMixBenches at its default
// scale on the default and baseline machines, one after another in one
// goroutine. As in benchPipeline, session construction is hoisted out
// of the timed region, so allocs/op counts only what the 16 runs
// allocate.
func BenchmarkPipelineExactMix(b *testing.B) {
	var progs []*emu.Program
	for _, name := range exactMixBenches {
		bench, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("benchmark %q missing from registry", name)
		}
		progs = append(progs, bench.Program(bench.DefaultScale))
	}
	cfgs := []pipeline.Config{pipeline.DefaultConfig(), pipeline.DefaultConfig().Baseline()}
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			for _, cfg := range cfgs {
				b.StopTimer()
				s, err := pipeline.New(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := s.Run(context.Background(), pipeline.RunOpts{})
				if err != nil {
					b.Fatal(err)
				}
				retired += res.Retired
			}
		}
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "insts/s")
}

// --- Sweep-level benchmarks of the exper engine ---

// sweepBenchConfigs builds n distinct machine configurations — a
// Figure 8-style config axis over one benchmark, the shape of a sweep
// cell.
func sweepBenchConfigs(n int) []pipeline.Config {
	cfgs := make([]pipeline.Config, n)
	for i := range cfgs {
		cfg := pipeline.DefaultConfig()
		cfg.WindowSize = 64 + 4*i
		cfgs[i] = cfg
	}
	return cfgs
}

// BenchmarkSweepExactLive times a 30-config exact sweep cell over mcf:
// every configuration drives its own live emulator. The runner is
// rebuilt each iteration so every iteration pays the full cold-cell
// cost.
func BenchmarkSweepExactLive(b *testing.B) {
	bench, _ := workloads.ByName("mcf")
	cfgs := sweepBenchConfigs(30)
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := exper.NewRunner(0)
		b.StartTimer()
		retired = 0
		for _, cfg := range cfgs {
			res, err := r.Run(context.Background(), cfg, bench, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			retired += res.Retired
		}
	}
	b.ReportMetric(float64(retired)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// sweepSampledScale sizes the sampled sweep workload (mgd) to ~4.5M
// dynamic instructions, where the whole-program fast-forward dominates
// per-configuration sampled-run cost — the regime sampled simulation
// exists for, and the one where sharing the window plan across the
// config axis pays.
const sweepSampledScale = 64

// benchSweepSampled times a 30-config sampled sweep cell over mgd.
// With the default budget the fast-forward and per-window checkpoints
// are built once and shared by all 30 configurations; with budget 0
// every configuration fast-forwards the whole program itself. insts/s counts architecturally represented
// instructions — the throughput sampled simulation is buying.
func benchSweepSampled(b *testing.B, budget int64) {
	b.Helper()
	bench, _ := workloads.ByName("mgd")
	cfgs := sweepBenchConfigs(30)
	sc := sample.DefaultConfig()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := exper.NewRunner(0)
		r.SetTraceBudget(budget)
		b.StartTimer()
		total = 0
		for _, cfg := range cfgs {
			res, err := r.RunSampled(context.Background(), cfg, bench, sweepSampledScale, sc)
			if err != nil {
				b.Fatal(err)
			}
			total += res.TotalInsts
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

func BenchmarkSweepSampledPlanned(b *testing.B)   { benchSweepSampled(b, exper.DefaultTraceBudget) }
func BenchmarkSweepSampledPerConfig(b *testing.B) { benchSweepSampled(b, 0) }

// planBuildScaleMul sizes BenchmarkPlanBuild's programs at the multiple
// of each built-in's default scale that the sampled perfbench sweep
// runs.
const planBuildScaleMul = 8

// BenchmarkPlanBuild times sampled simulation's config-independent
// functional pass: sample.BuildPlan over every built-in at
// planBuildScaleMul times its default scale, one after another in one
// goroutine. The pass is the emulator's raw fast-forward loop plus
// checkpoint snapshots, the dominant cost of a sampled cell. insts/s
// counts the dynamic instructions the plans cover.
func BenchmarkPlanBuild(b *testing.B) {
	var progs []*emu.Program
	for _, bench := range workloads.All() {
		progs = append(progs, bench.Program(planBuildScaleMul*bench.DefaultScale))
	}
	sc := sample.DefaultConfig().Normalize()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			plan, err := sample.BuildPlan(context.Background(), prog, sc, 0)
			if err != nil {
				b.Fatal(err)
			}
			insts += plan.TotalInsts
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkOptimizerRename isolates the rename/optimize stage: one
// instruction stream renamed with full optimization, no timing model.
func BenchmarkOptimizerRename(b *testing.B) {
	bench, _ := workloads.ByName("untst")
	prog := bench.Program(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := emu.New(prog)
		prf := regfile.New(512)
		opt := core.NewOptimizer(core.DefaultConfig(), prf)
		var held []regfile.PReg
		b.StartTimer()
		for n := 0; ; n++ {
			d := m.Step()
			if d == nil {
				break
			}
			if n%4 == 0 {
				opt.BeginBundle()
			}
			res := opt.Rename(d)
			held = append(held, res.Dest)
			held = append(held, res.Deps...)
			if len(held) > 256 {
				for _, p := range held[:128] {
					prf.Release(p)
				}
				held = held[128:]
			}
		}
		b.StopTimer()
		for _, p := range held {
			prf.Release(p)
		}
		b.StartTimer()
	}
}

// BenchmarkAssembler measures assembly speed of the largest workload
// source.
func BenchmarkAssembler(b *testing.B) {
	bench, _ := workloads.ByName("mgd")
	src := bench.Source(benchScale)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}
