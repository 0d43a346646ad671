package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// namedConfig pairs a display label with a machine configuration.
type namedConfig struct {
	label string
	cfg   pipeline.Config
}

// suiteSpeedups runs all benchmarks under a reference config plus a list
// of variants and prints one row per suite with the geomean speedup of
// each variant over the reference.
func (o Options) suiteSpeedups(ctx context.Context, w io.Writer, title string, ref pipeline.Config, variants []namedConfig) error {
	cfgs := make([]pipeline.Config, 0, len(variants)+1)
	cfgs = append(cfgs, ref)
	for _, v := range variants {
		cfgs = append(cfgs, v.cfg)
	}
	runs, err := o.runMatrix(ctx, workloads.All(), cfgs)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, title)
	tw := newTab(w)
	fmt.Fprint(tw, "suite")
	for _, v := range variants {
		fmt.Fprintf(tw, "\t%s", v.label)
	}
	fmt.Fprintln(tw)
	for _, s := range workloads.Suites() {
		fmt.Fprint(tw, s)
		for vi := range variants {
			var vals []float64
			for _, r := range runs {
				if r.bench.Suite == s {
					vals = append(vals, r.results[vi+1].SpeedupOver(r.results[0]))
				}
			}
			fmt.Fprintf(tw, "\t%.3f", exper.Geomean(vals))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Figure8 evaluates continuous optimization on fetch-bound and
// execution-bound machine models (§5.3): scheduler entries doubled makes
// the machine fetch-bound; an 8-wide front end makes it execution-bound.
// All bars are relative to the default baseline.
func (o Options) Figure8(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()

	fetchBound := base
	fetchBound.Name = "fetch-bound"
	fetchBound.SchedEntries = def.SchedEntries * 2

	fetchBoundOpt := def
	fetchBoundOpt.Name = "fetch-bound+opt"
	fetchBoundOpt.SchedEntries = def.SchedEntries * 2

	execBound := base
	execBound.Name = "exec-bound"
	execBound.FetchWidth = def.FetchWidth * 2

	execBoundOpt := def
	execBoundOpt.Name = "exec-bound+opt"
	execBoundOpt.FetchWidth = def.FetchWidth * 2

	return o.suiteSpeedups(ctx, w,
		"Figure 8 — Performance on other machine models (relative to default baseline)",
		base, []namedConfig{
			{"fetch-bound", fetchBound},
			{"fetch-bound+opt", fetchBoundOpt},
			{"opt", def},
			{"exec-bound", execBound},
			{"exec-bound+opt", execBoundOpt},
		})
}

// Figure9 compares value feedback alone against feedback plus
// optimization (§6.1).
func (o Options) Figure9(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	feedback := def.WithMode(core.ModeFeedbackOnly)
	feedback.Name = "feedback"
	full := def
	full.Name = "feedback+opt"
	return o.suiteSpeedups(ctx, w,
		"Figure 9 — Continuous optimization vs. value feedback (speedup over baseline)",
		base, []namedConfig{
			{"feedback", feedback},
			{"feedback+opt", full},
		})
}

// Figure10 sweeps the per-bundle dependence depth (§6.2): 0 (default),
// 1, 3, and 3 with one chained memory operation.
func (o Options) Figure10(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	mk := func(name string, depth, mem int) pipeline.Config {
		c := def
		c.Name = name
		c.Opt.DepDepth = depth
		c.Opt.ChainedMem = mem
		return c
	}
	return o.suiteSpeedups(ctx, w,
		"Figure 10 — Importance of processing dependent instructions in parallel",
		base, []namedConfig{
			{"depth 0 (default)", mk("depth0", 0, 0)},
			{"depth 1", mk("depth1", 1, 0)},
			{"depth 3", mk("depth3", 3, 0)},
			{"depth 3 & 1 mem", mk("depth3mem1", 3, 1)},
		})
}

// Figure11 sweeps the optimizer's extra pipeline stages (§6.3): 0, 2
// (default), 4.
func (o Options) Figure11(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	mk := func(stages uint64) pipeline.Config {
		c := def
		c.Name = fmt.Sprintf("optlat%d", stages)
		c.OptStages = stages
		return c
	}
	return o.suiteSpeedups(ctx, w,
		"Figure 11 — Optimizer latency sensitivity (extra rename stages)",
		base, []namedConfig{
			{"delay 0", mk(0)},
			{"delay 2 (default)", mk(2)},
			{"delay 4", mk(4)},
		})
}

// Figure12 sweeps the value-feedback transmission delay (§6.4): 0, 1
// (default), 5, 10 cycles.
func (o Options) Figure12(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	mk := func(delay uint64) pipeline.Config {
		c := def
		c.Name = fmt.Sprintf("fbdelay%d", delay)
		c.FeedbackDelay = delay
		return c
	}
	return o.suiteSpeedups(ctx, w,
		"Figure 12 — Value feedback transmission delay sensitivity",
		base, []namedConfig{
			{"delay 0", mk(0)},
			{"delay 1 (default)", mk(1)},
			{"delay 5", mk(5)},
			{"delay 10", mk(10)},
		})
}

// MBCSweep is an ablation beyond the paper: Memory Bypass Cache capacity
// 32/64/128/256 entries — probing the mcf/untst "fits in the MBC" story.
func (o Options) MBCSweep(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	mk := func(entries int) pipeline.Config {
		c := def
		c.Name = fmt.Sprintf("mbc%d", entries)
		c.Opt.MBCEntries = entries
		// A larger MBC pins more physical registers; keep headroom.
		if need := 64 + c.WindowSize + entries + 64; c.PRegs < need {
			c.PRegs = need
		}
		return c
	}
	return o.suiteSpeedups(ctx, w,
		"Ablation — MBC capacity sweep (speedup over baseline)",
		base, []namedConfig{
			{"32", mk(32)},
			{"64", mk(64)},
			{"128 (default)", mk(128)},
			{"256", mk(256)},
		})
}

// PolicySweep is an ablation beyond the paper: store policy and the
// minor optimizations toggled off (§3.2 claims the store policies differ
// little; we measure it).
func (o Options) PolicySweep(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	flush := def
	flush.Name = "flush-MBC"
	flush.Opt.StorePolicy = core.StoreFlush
	noInf := def
	noInf.Name = "no-inference"
	noInf.Opt.BranchInference = false
	noSR := def
	noSR.Name = "no-strength-red"
	noSR.Opt.StrengthReduce = false
	return o.suiteSpeedups(ctx, w,
		"Ablation — store policy and minor optimizations (speedup over baseline)",
		base, []namedConfig{
			{"default", def},
			{"flush-on-store", flush},
			{"no inference", noInf},
			{"no strength-red", noSR},
		})
}
