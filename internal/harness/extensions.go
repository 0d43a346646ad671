package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// DiscreteSweep contrasts continuous optimization with the discrete
// (offline, trace-based) optimization the paper positions itself against
// in §3.4: the same table hardware with state invalidated at every
// trace boundary and no real-time value feedback. Trace lengths of 64,
// 256 and 1024 instructions bracket the frame sizes of rePLay-class
// systems.
func (o Options) DiscreteSweep(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	mk := func(window int) pipeline.Config {
		c := def
		c.Name = fmt.Sprintf("discrete%d", window)
		c.Opt.DiscreteWindow = window
		return c
	}
	return o.suiteSpeedups(ctx, w,
		"Extension — continuous vs. discrete (offline-style) optimization (§3.4)",
		base, []namedConfig{
			{"continuous", def},
			{"trace 1024", mk(1024)},
			{"trace 256", mk(256)},
			{"trace 64", mk(64)},
		})
}

// DeadValues reports the fraction of destination values that were
// overwritten without any pipeline consumer, with and without
// optimization — quantifying §2.3's observation that the optimizations
// "substantially increase the fraction of dead instructions in the
// instruction stream" (which a Butts-Sohi-style eliminator could then
// remove).
func (o Options) DeadValues(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	base := def.Baseline()
	runs, err := o.runMatrix(ctx, workloads.All(), []pipeline.Config{base, def})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Extension — dead destination values, baseline vs. optimized (§2.3)")
	tw := newTab(w)
	fmt.Fprintln(tw, "suite\tbaseline dead\toptimized dead")
	per := map[string][2]pipeline.Counts{}
	for _, r := range runs {
		a := per[r.bench.Suite]
		a[0], a[1] = a[0].Add(r.results[0].Counts()), a[1].Add(r.results[1].Counts())
		per[r.bench.Suite] = a
	}
	dead := func(c pipeline.Counts) float64 {
		return 100 * float64(c.Opt.DeadValues) / float64(max(c.Opt.DeadCandidates, 1))
	}
	for _, s := range workloads.Suites() {
		a := per[s]
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\n", s, dead(a[0]), dead(a[1]))
	}
	return tw.Flush()
}
