package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// ClassSpeedup is one per-benchmark data point of ClassFigure.
type ClassSpeedup struct {
	Class, Name string
	Speedup     float64
	Base, Opt   *pipeline.Result
}

// classKey buckets a benchmark for the class figure.
func classKey(b *workloads.Benchmark) string {
	if b.Class == "" {
		return "unclassified"
	}
	return b.Class
}

// ClassFigureData runs the headline baseline-vs-optimized comparison
// over benches and returns per-benchmark speedups ordered by behavior
// class — the machine-readable form of ClassFigure.
func (o Options) ClassFigureData(ctx context.Context, benches []*workloads.Benchmark) ([]ClassSpeedup, error) {
	base := pipeline.DefaultConfig().Baseline()
	opt := pipeline.DefaultConfig()
	runs, err := o.runMatrix(ctx, benches, []pipeline.Config{base, opt})
	if err != nil {
		return nil, err
	}
	byClass := map[string][]ClassSpeedup{}
	for _, r := range runs {
		k := classKey(r.bench)
		byClass[k] = append(byClass[k], ClassSpeedup{
			Class:   k,
			Name:    r.bench.Name,
			Speedup: r.results[1].SpeedupOver(r.results[0]),
			Base:    r.results[0],
			Opt:     r.results[1],
		})
	}
	// Canonical class order first, then anything else (unclassified) in
	// first-appearance order.
	order := workloads.Classes()
	seen := map[string]bool{}
	for _, c := range order {
		seen[c] = true
	}
	for _, r := range runs {
		if k := classKey(r.bench); !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	var out []ClassSpeedup
	for _, c := range order {
		out = append(out, byClass[c]...)
	}
	return out, nil
}

// ClassFigure prints the Figure-6-style speedup of continuous
// optimization over the baseline machine for the given benchmarks,
// sliced by behavior class with per-class geometric means and an
// overall mean when more than one class is present. Built-in and
// generated (internal/scenario) benchmarks mix freely; the class tags
// are the grouping, not the suite.
func (o Options) ClassFigure(ctx context.Context, w io.Writer, benches []*workloads.Benchmark) error {
	data, err := o.ClassFigureData(ctx, benches)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Speedup over baseline by behavior class")
	tw := newTab(w)
	cur := ""
	classes := 0
	var classVals, allVals []float64
	flush := func() {
		if cur != "" {
			fmt.Fprintf(tw, "%s\tavg\t%.3f\n", cur, exper.Geomean(classVals))
		}
		classVals = nil
	}
	for _, d := range data {
		if d.Class != cur {
			flush()
			cur = d.Class
			classes++
		}
		classVals = append(classVals, d.Speedup)
		allVals = append(allVals, d.Speedup)
		fmt.Fprintf(tw, "%s\t%s\t%.3f\n", d.Class, d.Name, d.Speedup)
	}
	flush()
	if classes > 1 {
		fmt.Fprintf(tw, "all\tavg\t%.3f\n", exper.Geomean(allVals))
	}
	return tw.Flush()
}
