// Package contopt is the public API of the continuous-optimization
// reproduction (Fahs, Rafacz, Patel, Lumetta — "Continuous Optimization",
// ISCA 2005 / UIUC CRHC-04-07).
//
// The package exports what a program built on the simulator needs:
//
//   - assembling CO64 programs (Assemble) and running them
//     architecturally (Emulate)
//   - running them on the cycle-level machine model with or without the
//     continuous optimizer: RunProgram for a plain run to completion,
//     or build a Session with NewSession and drive it with Session.Run,
//     which takes RunOpts for cycle/retirement limits and interval
//     telemetry (IntervalStats)
//   - the 22-benchmark workload registry (BenchmarkByName,
//     RunBenchmark)
//
// The paper's tables and figures, user-defined sweeps, sampled
// simulation, the persistent result store, sharded sweeps and the sweep
// service are driven by the contopt command (cmd/contopt); see the
// README.
//
// Quick start:
//
//	prog, err := contopt.Assemble("demo", src)
//	sess, err := contopt.NewSession(contopt.DefaultConfig(), prog)
//	opt, err := sess.Run(ctx, contopt.RunOpts{})
//	base, err := contopt.RunProgram(ctx, contopt.BaselineConfig(), prog)
//	fmt.Printf("speedup %.3f\n", opt.SpeedupOver(base))
//
// Canceling ctx (timeout, Ctrl-C) aborts any of these calls promptly
// with an error wrapping ctx.Err(); set RunOpts.Interval and
// RunOpts.Observer to watch a simulation's IPC-over-time as it runs.
package contopt

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// Config describes a simulated machine (see pipeline.Config for fields).
type Config = pipeline.Config

// Result carries the outcome of one simulation, including the optional
// Intervals telemetry time series and a Truncated reason when a RunOpts
// limit stopped the run early. Result.Counts returns its event counters
// as one Counts.
type Result = pipeline.Result

// Counts is the event bundle of one measured stretch of a run — cycles,
// retirements, branch and optimizer events — with IPC, CPI, the Table 3
// percentages, and field-wise Add and Sub; see pipeline.Counts.
type Counts = pipeline.Counts

// Session is one machine instance bound to one program — the unit of
// execution. Sessions are single-use: build with NewSession, drive with
// Session.Run.
type Session = pipeline.Session

// RunOpts controls one Session.Run: MaxCycles/MaxRetired limits and
// Interval/Observer telemetry.
type RunOpts = pipeline.RunOpts

// IntervalStats is one interval of a simulation's telemetry time
// series: its position, start cycle and embedded Counts. Summing a
// run's intervals with Counts.Add gives Result.Counts; see
// pipeline.IntervalStats.
type IntervalStats = pipeline.IntervalStats

// TruncateReason says why a simulation stopped before completion.
type TruncateReason = pipeline.TruncateReason

// TruncNone is Result.Truncated for a run that completed.
const TruncNone = pipeline.TruncNone

// Program is an executable CO64 image.
type Program = emu.Program

// Benchmark is one entry of the workload registry.
type Benchmark = workloads.Benchmark

// OptimizerMode selects baseline / feedback-only / full optimization.
type OptimizerMode = core.Mode

// ModeFeedbackOnly (for Config.Opt.Mode) propagates fed-back values and
// early-executes at rename but performs no symbolic optimization —
// Figure 9's "feedback" bar.
const ModeFeedbackOnly = core.ModeFeedbackOnly

// DefaultConfig returns the paper's default machine (Table 2) with
// continuous optimization enabled.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// BaselineConfig returns the comparison machine without the optimizer.
func BaselineConfig() Config { return pipeline.DefaultConfig().Baseline() }

// Assemble translates CO64 assembly into an executable program.
func Assemble(name, source string) (*Program, error) {
	return asm.Assemble(name, source)
}

// NewSession builds a simulation session for prog on the machine
// described by cfg, validating the configuration.
func NewSession(cfg Config, prog *Program) (*Session, error) {
	return pipeline.New(cfg, prog)
}

// RunProgram simulates prog to completion on the machine described by
// cfg under ctx. For limits or telemetry, build a Session and pass
// RunOpts yourself.
func RunProgram(ctx context.Context, cfg Config, prog *Program) (*Result, error) {
	s, err := NewSession(cfg, prog)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, RunOpts{})
}

// Emulate executes prog architecturally (no timing) for at most max
// instructions (0 = to completion) and returns the finished machine.
func Emulate(prog *Program, max uint64) *emu.Machine {
	m := emu.New(prog)
	m.Run(max)
	return m
}

// BenchmarkByName finds a benchmark by its Table 1 abbreviation.
func BenchmarkByName(name string) (*Benchmark, error) {
	b, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("contopt: unknown benchmark %q", name)
	}
	return b, nil
}

// RunBenchmark simulates a registry benchmark at the given scale (0 =
// default) under cfg, honoring ctx for cancellation. opts carries
// cycle/retirement limits and interval telemetry; pass RunOpts{} for a
// plain run to completion.
func RunBenchmark(ctx context.Context, name string, scale int, cfg Config, opts RunOpts) (*Result, error) {
	b, err := BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(cfg, b.Program(scale))
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, opts)
}
