// Package contopt is the public API of the continuous-optimization
// reproduction (Fahs, Rafacz, Patel, Lumetta — "Continuous Optimization",
// ISCA 2005 / UIUC CRHC-04-07).
//
// The package re-exports the pieces a downstream user needs:
//
//   - assembling CO64 programs (Assemble)
//   - running them on the cycle-level machine model with or without the
//     continuous optimizer: build a Session with NewSession and drive it
//     with Session.Run, which takes a context.Context for cancellation
//     and RunOpts for cycle/retirement limits and interval telemetry
//     (IntervalStats) — or use the deprecated blocking Run for the old
//     one-call path
//   - the 22-benchmark workload registry (Benchmarks, Benchmark,
//     RunBenchmark)
//   - the experiment harness that regenerates the paper's tables and
//     figures (Experiments); every artifact method takes a context
//   - the experiment engine: a memoizing, bounded-parallelism,
//     cancellation-safe runner (Engine, NewEngine) with engine-level
//     progress observers (Progress), and declarative JSON sweep specs
//     (SweepSpec, LoadSweepSpec, ParseSweepSpec, Sweep) for
//     user-defined experiments
//   - sampled simulation (SampleProgram, Engine.RunSampled): functional
//     fast-forward through the emulator with periodic detailed windows,
//     estimating whole-run IPC within a reported confidence interval at
//     a fraction of the cost of an exact run — see SampleConfig for the
//     regime and SampleResult for the estimate
//   - the persistent result store (OpenStore, Engine.SetStore): a
//     content-addressed on-disk cache layered below the engine's
//     in-memory one, so results survive process exit, sweeps resume
//     after interruption, and warm reruns perform zero simulations
//   - the multi-tenant sweep service (SweepServer, NewSweepServer):
//     an HTTP front end over one shared engine with SLO-class
//     scheduling (critical, sheddable, batch), load shedding, per-job
//     Server-Sent-Events progress streams, and cross-client dedup of
//     identical cells — the "contopt serve" subcommand
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
	"repro/internal/exper"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Config describes a simulated machine (see pipeline.Config for fields).
type Config = pipeline.Config

// Result carries the outcome of one simulation, including the optional
// Intervals telemetry time series and a Truncated reason when a RunOpts
// limit stopped the run early.
type Result = pipeline.Result

// Session is one machine instance bound to one program — the unit of
// execution. Sessions are single-use: build with NewSession, drive with
// Session.Run.
type Session = pipeline.Session

// RunOpts controls one Session.Run: MaxCycles/MaxRetired limits and
// Interval/Observer telemetry.
type RunOpts = pipeline.RunOpts

// IntervalStats is one interval of a simulation's telemetry time
// series; see pipeline.IntervalStats.
type IntervalStats = pipeline.IntervalStats

// TruncateReason says why a simulation stopped before completion.
type TruncateReason = pipeline.TruncateReason

// Truncation reasons reported in Result.Truncated.
const (
	TruncNone       = pipeline.TruncNone
	TruncMaxCycles  = pipeline.TruncMaxCycles
	TruncMaxRetired = pipeline.TruncMaxRetired
)

// Progress is one simulation interval tagged with its run identity,
// delivered to engine-level observers registered with Engine.Observe.
type Progress = exper.Progress

// Program is an executable CO64 image.
type Program = emu.Program

// Benchmark is one entry of the workload registry.
type Benchmark = workloads.Benchmark

// Experiments runs the paper's tables and figures; see harness.Options.
// Set Experiments.Engine to share one result cache across artifacts.
// Every artifact method takes a context.Context and aborts cleanly on
// cancellation.
type Experiments = harness.Options

// Engine executes simulations with bounded parallelism and memoizes
// results by (config content hash, benchmark, scale); see exper.Runner.
// All engine methods take a context.Context; Engine.Observe registers
// progress observers.
type Engine = exper.Runner

// SweepSpec declares a user-defined experiment: benchmark filters, a
// reference machine, and labeled config variants; see exper.SweepSpec.
type SweepSpec = exper.SweepSpec

// SweepVariant is one machine variant of a SweepSpec.
type SweepVariant = exper.VariantSpec

// SweepResult holds an executed sweep's simulations and formatting.
type SweepResult = exper.SweepResult

// SampleConfig sets a sampled-simulation regime: the instruction
// period between detailed windows (0 = auto-scaled per program), the
// per-window detailed warmup (statistics discarded) and measured
// window, and whether fast-forward functionally warms the caches and
// branch predictor. See sample.Config.
type SampleConfig = sample.Config

// SampleResult is a sampled-simulation estimate: per-window
// measurements, the whole-run cycle/IPC estimate, and its 95%
// confidence interval. Estimate() renders it as a pipeline Result
// (Sampled == true) for code that formats exact and sampled runs
// uniformly.
type SampleResult = sample.Result

// SampleWindow is one measured detailed window of a sampled run.
type SampleWindow = sample.Window

// DefaultSampleConfig returns the regime behind the CLI's -sample flag.
func DefaultSampleConfig() SampleConfig { return sample.DefaultConfig() }

// SampleProgram estimates prog's whole-run performance under cfg by
// sampled simulation (fast-forward + periodic detailed windows),
// honoring ctx. Pass DefaultSampleConfig() for the standard regime.
// For registry benchmarks prefer Engine.RunSampled, which memoizes.
func SampleProgram(ctx context.Context, cfg Config, prog *Program, sc SampleConfig) (*SampleResult, error) {
	return sample.Run(ctx, cfg, prog, sc)
}

// OptimizerMode selects baseline / feedback-only / full optimization.
type OptimizerMode = core.Mode

// Optimizer modes, re-exported for configuration.
const (
	ModeBaseline     = core.ModeBaseline
	ModeFeedbackOnly = core.ModeFeedbackOnly
	ModeFull         = core.ModeFull
)

// DefaultConfig returns the paper's default machine (Table 2) with
// continuous optimization enabled.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// BaselineConfig returns the comparison machine without the optimizer.
func BaselineConfig() Config { return pipeline.DefaultConfig().Baseline() }

// NewEngine builds an experiment engine whose worker pool admits at
// most parallelism concurrent simulations (0 = GOMAXPROCS).
func NewEngine(parallelism int) *Engine { return exper.NewRunner(parallelism) }

// Store is the persistent, content-addressed result store: simulation
// results keyed by machine-config content hash, benchmark, scale and
// (for sampled estimates) sampling regime, durable across processes.
// Attach one to an engine with Engine.SetStore — cache misses then
// read through to disk and fresh results are persisted, which is what
// makes interrupted sweeps resumable and warm reruns simulation-free.
// See internal/store for the on-disk format and corruption semantics.
type Store = store.Store

// StoreEntry describes one stored entry, as returned by Store.List.
type StoreEntry = store.Entry

// StoreInfo is an aggregate snapshot of a store, from Store.Stat.
type StoreInfo = store.Info

// OpenStore opens (creating if necessary) the persistent result store
// rooted at dir. A Store is safe for concurrent use by multiple
// goroutines and multiple processes sharing the directory.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// EngineStats reports an engine's cache effectiveness: simulations
// executed (misses), in-memory cache hits, persistent-store hits, and
// the decode-once counters (traces recorded vs replayed, sampled-run
// plans built vs reused, resident cache bytes).
type EngineStats = exper.Stats

// SweepServer is the multi-tenant sweep service: POST sweep specs to
// /v1/sweeps tagged with a tenant and SLO class, stream SSE progress
// from /v1/jobs/{id}/events, read engine and queue statistics from
// /metrics. All jobs execute through one shared Engine, so identical
// cells dedupe across clients. See internal/serve.
type SweepServer = serve.Server

// SweepServerConfig tunes a SweepServer's scheduler and telemetry.
type SweepServerConfig = serve.Config

// SLOClass is a submitted job's scheduling tier.
type SLOClass = serve.Class

// SLO classes, in dequeue-priority order.
const (
	SLOCritical  = serve.Critical
	SLOSheddable = serve.Sheddable
	SLOBatch     = serve.Batch
)

// NewSweepServer builds a sweep service over eng. Serve it with
// SweepServer.ListenAndServe (which drains gracefully when its context
// ends) or mount SweepServer.Handler on your own http.Server and call
// SweepServer.Shutdown yourself.
func NewSweepServer(eng *Engine, cfg SweepServerConfig) *SweepServer {
	return serve.New(eng, cfg)
}

// LoadSweepSpec reads and validates a JSON sweep spec file.
func LoadSweepSpec(path string) (*SweepSpec, error) { return exper.LoadSpec(path) }

// ParseSweepSpec decodes and validates a JSON sweep spec.
func ParseSweepSpec(data []byte) (*SweepSpec, error) { return exper.ParseSpec(data) }

// ScenarioSpec is a declarative, versioned, seeded description of a
// generated workload set: parameterized kernel families expanded into
// deterministic synthetic benchmarks tagged with behavior classes. See
// scenario.Spec for the JSON schema and "contopt scen" for the CLI.
type ScenarioSpec = scenario.Spec

// Scenario is one generated workload: resolved knobs, a derived
// sub-seed, a behavior class, and a deterministic Source/InstCap pair.
type Scenario = scenario.Scenario

// LoadScenarioSpec reads and validates a JSON scenario spec file.
func LoadScenarioSpec(path string) (*ScenarioSpec, error) { return scenario.LoadSpec(path) }

// ParseScenarioSpec decodes and validates a JSON scenario spec.
func ParseScenarioSpec(data []byte) (*ScenarioSpec, error) { return scenario.ParseSpec(data) }

// GenerateScenarios expands a scenario spec into its scenarios without
// registering them; the result is deterministic per (spec, seed).
func GenerateScenarios(spec *ScenarioSpec) ([]*Scenario, error) { return spec.Generate() }

// MaterializeScenarios generates spec's scenarios and registers them as
// benchmarks resolvable by BenchmarkByName and runnable by engines and
// sweeps, returning them in spec order. Idempotent per spec content.
func MaterializeScenarios(spec *ScenarioSpec) ([]*Benchmark, error) { return spec.Materialize() }

// BehaviorClasses returns the canonical behavior-class tags
// (memory-bound, branchy, ilp-rich, mixed) carried by every benchmark.
func BehaviorClasses() []string { return workloads.Classes() }

// Assemble translates CO64 assembly into an executable program.
func Assemble(name, source string) (*Program, error) {
	return asm.Assemble(name, source)
}

// NewSession builds a simulation session for prog on the machine
// described by cfg, validating the configuration.
func NewSession(cfg Config, prog *Program) (*Session, error) {
	return pipeline.New(cfg, prog)
}

// Checkpoint is a self-owned architectural snapshot of an emulator
// machine — PC, registers, a private memory image, and the dynamic
// instruction count. Take one with Emulate(...).Snapshot().
type Checkpoint = emu.Checkpoint

// Trace is an immutable recording of a program's dynamic instruction
// stream — the decode-once artifact: record it once with RecordTrace,
// then time it under any number of machine configurations with
// NewReplaySession, each session byte-for-byte identical to a live
// one. Safe for concurrent replay.
type Trace = emu.Trace

// RecordTrace executes prog architecturally to completion, capturing
// its dynamic instruction stream. maxInsts caps the recording (0 =
// unlimited; exceeding a non-zero cap is an error). Engine users don't
// call this directly — the engine records and caches traces itself
// (see Engine.SetTraceBudget and EngineStats).
func RecordTrace(ctx context.Context, prog *Program, maxInsts uint64) (*Trace, error) {
	return emu.Record(ctx, prog, maxInsts)
}

// NewReplaySession builds a session that times prog's recorded stream
// tr instead of driving a live emulator. Timing-identical to
// NewSession over the same program; any number of replay sessions may
// share one trace concurrently.
func NewReplaySession(cfg Config, prog *Program, tr *Trace) (*Session, error) {
	return pipeline.NewReplay(cfg, prog, tr)
}

// NewSessionFromCheckpoint builds a session whose oracle resumes prog
// at the architectural checkpoint ck instead of the entry point: the
// detailed model then simulates only the instructions from
// ck.InstCount onward (Result.StartInst records the offset). This is
// the building block of sampled simulation; the checkpoint is copied,
// not consumed.
func NewSessionFromCheckpoint(cfg Config, prog *Program, ck *Checkpoint) (*Session, error) {
	return pipeline.NewFromCheckpoint(cfg, prog, ck)
}

// RunProgram simulates prog to completion on the machine described by
// cfg under ctx — the context-aware successor to Run. For limits or
// telemetry, build a Session and pass RunOpts yourself.
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

// Benchmarks returns the 22-benchmark registry in suite order.
func Benchmarks() []*Benchmark { return workloads.All() }

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

// Sweep executes a declarative sweep spec on eng (see SweepSpec for the
// schema), honoring ctx for cancellation. Results are memoized in the
// engine's cache like any other simulation.
func Sweep(ctx context.Context, eng *Engine, spec *SweepSpec) (*SweepResult, error) {
	return eng.Sweep(ctx, spec)
}

// Shard identifies one partition of a sharded sweep: the process owning
// every cell whose index ≡ Index (mod Count). Independent processes each
// run Engine.SweepShard with a distinct shard against engines sharing
// one Store, then any of them assembles the table with
// Engine.SweepMerge — coordination happens only through the store. See
// exper.Shard; ParseShard parses the CLI form "i/n".
type Shard = exper.Shard

// ShardReport summarizes one Engine.SweepShard invocation.
type ShardReport = exper.ShardReport

// ParseShard parses a shard in its CLI form "i/n" (e.g. "0/3").
func ParseShard(s string) (Shard, error) { return exper.ParseShard(s) }
