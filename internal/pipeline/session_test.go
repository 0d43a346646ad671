package pipeline_test

// External-package tests for the Session API: cancellation, truncation
// limits, and interval telemetry, exercised on real registry benchmarks
// (the workloads package imports nothing from pipeline, so the external
// test package can use it without a cycle).

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func benchProgram(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing from registry", name)
	}
	return b
}

func newSession(t *testing.T, name string, scale int) *pipeline.Session {
	t.Helper()
	b := benchProgram(t, name)
	s, err := pipeline.New(pipeline.DefaultConfig(), b.Program(scale))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newSession(t, "mcf", 1)
	res, err := s.Run(ctx, pipeline.RunOpts{})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Run on canceled ctx = (%v, %v), want error wrapping context.Canceled", res, err)
	}
}

func TestRunCancellationIsPrompt(t *testing.T) {
	// Cancel mid-simulation and require Run to return quickly with an
	// error wrapping context.Canceled. The deadline is generous (the
	// simulator polls every 4096 cycles, a few hundred microseconds).
	b := benchProgram(t, "mcf")
	s, err := pipeline.New(pipeline.DefaultConfig(), b.Program(b.DefaultScale))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := s.Run(ctx, pipeline.RunOpts{})
	elapsed := time.Since(start)
	if err == nil {
		// The machine finished before the cancel landed — nothing to
		// assert on this (fast) host.
		t.Skipf("simulation finished in %v before cancellation", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v should wrap context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled Run returned a result: %v", res)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestSessionIsSingleUse(t *testing.T) {
	s := newSession(t, "untst", 1)
	if _, err := s.Run(context.Background(), pipeline.RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), pipeline.RunOpts{}); err == nil {
		t.Error("second Run on a consumed session should fail")
	}
}

func TestMaxCyclesTruncates(t *testing.T) {
	full, err := newSession(t, "mcf", 1).Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	limit := full.Cycles / 2
	cut, err := newSession(t, "mcf", 1).Run(context.Background(), pipeline.RunOpts{MaxCycles: limit})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Truncated != pipeline.TruncMaxCycles {
		t.Errorf("Truncated = %q, want %q", cut.Truncated, pipeline.TruncMaxCycles)
	}
	if cut.Cycles != limit {
		t.Errorf("truncated run stopped at cycle %d, want %d", cut.Cycles, limit)
	}
	if cut.Retired == 0 || cut.Retired >= full.Retired {
		t.Errorf("truncated run retired %d, want partial progress below %d", cut.Retired, full.Retired)
	}
	if full.Truncated != pipeline.TruncNone {
		t.Errorf("full run Truncated = %q, want none", full.Truncated)
	}
}

func TestMaxRetiredTruncates(t *testing.T) {
	res, err := newSession(t, "untst", 1).Run(context.Background(), pipeline.RunOpts{MaxRetired: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != pipeline.TruncMaxRetired {
		t.Errorf("Truncated = %q, want %q", res.Truncated, pipeline.TruncMaxRetired)
	}
	// The retire stage drains up to RetireWidth past the threshold check.
	w := uint64(pipeline.DefaultConfig().RetireWidth)
	if res.Retired < 1000 || res.Retired >= 1000+w {
		t.Errorf("retired %d, want in [1000, %d)", res.Retired, 1000+w)
	}
}

// TestIntervalTelemetrySumsToTotals is the telemetry conservation law on
// two registry benchmarks: summing every IntervalStats field over a run
// reproduces the final Result totals exactly.
func TestIntervalTelemetrySumsToTotals(t *testing.T) {
	for _, name := range []string{"mcf", "untst"} {
		t.Run(name, func(t *testing.T) {
			var observed []pipeline.IntervalStats
			res, err := newSession(t, name, 1).Run(context.Background(), pipeline.RunOpts{
				Interval: 1000,
				Observer: func(iv pipeline.IntervalStats) { observed = append(observed, iv) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Intervals) < 2 {
				t.Fatalf("only %d intervals; scale the workload or shrink Interval", len(res.Intervals))
			}
			if len(observed) != len(res.Intervals) {
				t.Fatalf("observer saw %d intervals, result holds %d", len(observed), len(res.Intervals))
			}
			var sum pipeline.Counts
			for i, iv := range res.Intervals {
				if iv.Index != i {
					t.Errorf("interval %d has Index %d", i, iv.Index)
				}
				if iv != observed[i] {
					t.Errorf("interval %d differs between observer and Result", i)
				}
				if i > 0 && iv.StartCycle != res.Intervals[i-1].EndCycle() {
					t.Errorf("interval %d starts at %d, previous ended at %d",
						i, iv.StartCycle, res.Intervals[i-1].EndCycle())
				}
				sum = sum.Add(iv.Counts)
			}
			if want := res.Counts(); sum != want {
				t.Errorf("interval sums differ from run totals:\n got %+v\nwant %+v", sum, want)
			}
		})
	}
}

// TestTruncatedRunEmitsFinalPartialInterval pins the truncation ×
// telemetry interaction: a run stopped by MaxCycles mid-interval must
// still close and emit the final partial interval, and the interval
// series must sum to the truncated run's totals exactly.
func TestTruncatedRunEmitsFinalPartialInterval(t *testing.T) {
	const limit, interval = 2500, 1000 // limit deliberately not a multiple
	var observed []pipeline.IntervalStats
	res, err := newSession(t, "mcf", 1).Run(context.Background(), pipeline.RunOpts{
		MaxCycles: limit,
		Interval:  interval,
		Observer:  func(iv pipeline.IntervalStats) { observed = append(observed, iv) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != pipeline.TruncMaxCycles {
		t.Fatalf("Truncated = %q, want %q", res.Truncated, pipeline.TruncMaxCycles)
	}
	want := limit/interval + 1 // full intervals plus the partial tail
	if len(res.Intervals) != want {
		t.Fatalf("got %d intervals, want %d (final partial interval missing?)", len(res.Intervals), want)
	}
	if len(observed) != len(res.Intervals) {
		t.Errorf("observer saw %d intervals, result holds %d", len(observed), len(res.Intervals))
	}
	last := res.Intervals[len(res.Intervals)-1]
	if lw := uint64(limit % interval); last.Cycles != lw {
		t.Errorf("final partial interval spans %d cycles, want %d", last.Cycles, lw)
	}
	if end := last.EndCycle(); end != res.Cycles {
		t.Errorf("final interval ends at cycle %d, run stopped at %d", end, res.Cycles)
	}
	var sum pipeline.Counts
	for _, iv := range res.Intervals {
		sum = sum.Add(iv.Counts)
	}
	if want := res.Counts(); sum != want {
		t.Errorf("interval sums differ from truncated run totals:\n got %+v\nwant %+v", sum, want)
	}
}

// TestMaxRetiredTruncationEmitsFinalPartialInterval is the same law for
// the retirement limit.
func TestMaxRetiredTruncationEmitsFinalPartialInterval(t *testing.T) {
	var observed []pipeline.IntervalStats
	res, err := newSession(t, "untst", 1).Run(context.Background(), pipeline.RunOpts{
		MaxRetired: 1500,
		Interval:   512,
		Observer:   func(iv pipeline.IntervalStats) { observed = append(observed, iv) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != pipeline.TruncMaxRetired {
		t.Fatalf("Truncated = %q, want %q", res.Truncated, pipeline.TruncMaxRetired)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no intervals emitted")
	}
	if last := res.Intervals[len(res.Intervals)-1]; last.EndCycle() != res.Cycles {
		t.Errorf("final interval ends at %d, run stopped at %d", last.EndCycle(), res.Cycles)
	}
	var sum pipeline.Counts
	for _, iv := range res.Intervals {
		sum = sum.Add(iv.Counts)
	}
	if want := res.Counts(); sum != want {
		t.Errorf("interval sums differ from truncated run totals:\n got %+v\nwant %+v", sum, want)
	}
	if len(observed) != len(res.Intervals) {
		t.Errorf("observer saw %d intervals, result holds %d", len(observed), len(res.Intervals))
	}
}

// TestTelemetryDoesNotPerturbSimulation pins that observing a run leaves
// every architectural and timing outcome identical.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	plain, err := newSession(t, "gcc", 1).Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := newSession(t, "gcc", 1).Run(context.Background(), pipeline.RunOpts{Interval: 512})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != observed.Cycles || plain.Retired != observed.Retired || plain.Opt != observed.Opt {
		t.Errorf("telemetry changed the simulation: %v vs %v", plain, observed)
	}
}

// TestResultRatiosZeroSafe guards every ratio accessor against division
// by zero: a zero-value Result must report 0, never NaN or Inf.
func TestResultRatiosZeroSafe(t *testing.T) {
	var r pipeline.Result
	var iv pipeline.IntervalStats
	for name, v := range map[string]float64{
		"IPC":                 r.IPC(),
		"SpeedupOver":         r.SpeedupOver(&pipeline.Result{}),
		"PctEarlyExecuted":    r.PctEarlyExecuted(),
		"PctMispredRecovered": r.PctMispredRecovered(),
		"PctAddrGen":          r.PctAddrGen(),
		"PctLoadsRemoved":     r.PctLoadsRemoved(),
		"IntervalStats.IPC":   iv.IPC(),
		"IntervalStats.CPI":   iv.CPI(),
	} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s on zero-value receiver = %v, want 0", name, v)
		}
	}
}

func TestStreamOnlyTelemetry(t *testing.T) {
	seen := 0
	res, err := newSession(t, "untst", 1).Run(context.Background(), pipeline.RunOpts{
		Interval:   1000,
		StreamOnly: true,
		Observer:   func(pipeline.IntervalStats) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 2 {
		t.Errorf("observer saw %d intervals, want a time series", seen)
	}
	if len(res.Intervals) != 0 {
		t.Errorf("StreamOnly run retained %d intervals", len(res.Intervals))
	}
}

// TestRunStampsConfigKey: a Result carries its config's key — hashed by
// Run, or taken from RunOpts.ConfigKey when the caller already has it.
func TestRunStampsConfigKey(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	res, err := newSession(t, "tst", 1).Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConfigKey != cfg.Key() {
		t.Errorf("ConfigKey = %q, want %q", res.ConfigKey, cfg.Key())
	}
	// The caller's key is taken as given, not recomputed.
	res, err = newSession(t, "tst", 1).Run(context.Background(), pipeline.RunOpts{ConfigKey: "precomputed"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConfigKey != "precomputed" {
		t.Errorf("ConfigKey with a precomputed key = %q, want %q", res.ConfigKey, "precomputed")
	}
}
