package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// SampleCheckRow compares the sampled estimator against the exact
// simulator on one benchmark: both machines (baseline and optimized)
// run both ways, and the row reports the IPC and speedup errors.
type SampleCheckRow struct {
	Bench *workloads.Benchmark

	// ExactBase/ExactOpt are the cycle-exact results, SampledBase/
	// SampledOpt the estimates.
	ExactBase, ExactOpt     *pipeline.Result
	SampledBase, SampledOpt *sample.Result

	// ExactSpeedup and SampledSpeedup are optimized-over-baseline.
	ExactSpeedup, SampledSpeedup float64

	// SpeedupErrPct, BaseIPCErrPct, OptIPCErrPct are signed relative
	// errors of the estimate, in percent.
	SpeedupErrPct float64
	BaseIPCErrPct float64
	OptIPCErrPct  float64
}

// SampleCheckReport is the outcome of one SampleCheck run.
type SampleCheckReport struct {
	Rows []SampleCheckRow
	// ExactWall and SampledWall are the wall-clock times of the two
	// phases (the sampled phase includes its functional fast-forwards).
	ExactWall, SampledWall time.Duration
	// TolerancePct is the threshold rows were checked against, and
	// CheckIPC whether per-machine IPC errors were gated in addition to
	// the speedup error.
	TolerancePct float64
	CheckIPC     bool
	// Violations lists the benchmarks whose gated errors exceeded the
	// tolerance.
	Violations []string
}

func relErrPct(est, exact float64) float64 {
	if exact == 0 {
		return 0
	}
	return 100 * (est - exact) / exact
}

// SampleCheckData runs the estimator validation: every selected
// benchmark (empty names = the full workload) is simulated exactly and
// sampled, on both the baseline and the optimized machine, and the
// per-benchmark errors are collected. A benchmark violates when its
// |speedup error| exceeds tolerancePct — or, with checkIPC set, when
// either machine's |IPC error| does too (the stricter per-machine
// gate; speedup benefits from error cancellation between machines,
// absolute IPC does not). The sampling regime comes from
// Options.Sample (nil = sample.DefaultConfig). Wall times are measured
// around the two phases; on a shared engine with pre-cached results
// they shrink accordingly.
func (o Options) SampleCheckData(ctx context.Context, names []string, tolerancePct float64, checkIPC bool) (*SampleCheckReport, error) {
	benches := workloads.All()
	if len(names) > 0 {
		benches = benches[:0:0]
		for _, name := range names {
			b, ok := workloads.ByName(name)
			if !ok {
				return nil, fmt.Errorf("harness: unknown benchmark %q (try 'contopt list')", name)
			}
			benches = append(benches, b)
		}
	}
	sc := sample.DefaultConfig()
	if o.Sample != nil {
		sc = o.Sample.Normalize()
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	eng := o.engine()
	cfgs := []pipeline.Config{pipeline.DefaultConfig().Baseline(), pipeline.DefaultConfig()}

	start := time.Now()
	exact, err := eng.Matrix(ctx, benches, cfgs, o.Scale, nil, nil)
	if err != nil {
		return nil, err
	}
	rep := &SampleCheckReport{ExactWall: time.Since(start), TolerancePct: tolerancePct, CheckIPC: checkIPC}

	start = time.Now()
	sampled := make([][]*sample.Result, len(benches))
	// Reuse the engine's fan-out by requesting estimates first (cells
	// run concurrently under the pool); the per-cell RunSampled calls
	// below are then cache hits that fetch the full sample.Result.
	if _, err := eng.Matrix(ctx, benches, cfgs, o.Scale, &sc, nil); err != nil {
		return nil, err
	}
	for i, b := range benches {
		sampled[i] = make([]*sample.Result, len(cfgs))
		for c, cfg := range cfgs {
			sr, err := eng.RunSampled(ctx, cfg, b, o.Scale, sc)
			if err != nil {
				return nil, err
			}
			sampled[i][c] = sr
		}
	}
	rep.SampledWall = time.Since(start)

	for i, b := range benches {
		eb, eo := exact[i][0], exact[i][1]
		sb, so := sampled[i][0], sampled[i][1]
		row := SampleCheckRow{
			Bench:          b,
			ExactBase:      eb,
			ExactOpt:       eo,
			SampledBase:    sb,
			SampledOpt:     so,
			ExactSpeedup:   eo.SpeedupOver(eb),
			SampledSpeedup: so.SpeedupOver(sb),
		}
		row.SpeedupErrPct = relErrPct(row.SampledSpeedup, row.ExactSpeedup)
		row.BaseIPCErrPct = relErrPct(sb.EstIPC(), eb.IPC())
		row.OptIPCErrPct = relErrPct(so.EstIPC(), eo.IPC())
		bad := math.Abs(row.SpeedupErrPct) > tolerancePct
		if checkIPC {
			bad = bad || math.Abs(row.BaseIPCErrPct) > tolerancePct ||
				math.Abs(row.OptIPCErrPct) > tolerancePct
		}
		if bad {
			rep.Violations = append(rep.Violations, b.Name)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// SampleCheck prints the estimator validation table — per benchmark:
// exact and sampled speedup, the signed errors, the estimate's
// confidence interval, window count, and detailed-instruction coverage
// — followed by the wall-time comparison. It returns an error when any
// benchmark's gated error (|speedup error|; with checkIPC also the
// per-machine |IPC error|) exceeds tolerancePct, which is what makes
// it usable as a CI gate.
func (o Options) SampleCheck(ctx context.Context, w io.Writer, names []string, tolerancePct float64, checkIPC bool) error {
	rep, err := o.SampleCheckData(ctx, names, tolerancePct, checkIPC)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Sample check — sampled estimator vs exact simulation (tolerance %.1f%%)\n", tolerancePct)
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\texact spdup\tsampled spdup\terr\tbase IPC err\topt IPC err\t95% CI\twindows\tdetail")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.2f%%\t%+.2f%%\t%+.2f%%\t±%.2f%%\t%d\t%.1f%%\n",
			r.Bench.Name, r.ExactSpeedup, r.SampledSpeedup, r.SpeedupErrPct,
			r.BaseIPCErrPct, r.OptIPCErrPct, 100*r.SampledOpt.RelCI,
			len(r.SampledOpt.Windows), 100*r.SampledOpt.Coverage())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	ratio := math.NaN()
	if rep.ExactWall > 0 {
		ratio = float64(rep.SampledWall) / float64(rep.ExactWall)
	}
	fmt.Fprintf(w, "wall time: exact %.2fs, sampled %.2fs (%.0f%% of exact)\n",
		rep.ExactWall.Seconds(), rep.SampledWall.Seconds(), 100*ratio)
	if len(rep.Violations) > 0 {
		what := "speedup"
		if checkIPC {
			what = "speedup or IPC"
		}
		return fmt.Errorf("harness: sampled %s off by more than %.1f%% on: %s",
			what, tolerancePct, strings.Join(rep.Violations, ", "))
	}
	fmt.Fprintf(w, "all %d benchmarks within %.1f%% of exact\n", len(rep.Rows), tolerancePct)
	return nil
}
