// Package sample implements sampled simulation: instead of simulating
// every cycle of a program in the detailed model, it fast-forwards
// through the architectural emulator (internal/emu, the oracle) and
// periodically drops into the cycle-level model (internal/pipeline) for
// a short detailed window, then estimates whole-run performance from
// the measured windows.
//
// # Method
//
// The method is classic SMARTS-style systematic sampling: detailed
// windows start every Period dynamic instructions; each window resumes
// the emulator from an architectural checkpoint, hands the machine to
// a pipeline.Session (pipeline.Warmer.Seed, or
// pipeline.NewFromCheckpoint under ColdStart), runs Warmup
// instructions in full detail with statistics discarded (filling the
// caches, branch predictor, and optimizer tables), then measures the
// next Window instructions. Whole-run CPI is estimated as the
// retirement-weighted mean CPI of the measured windows, whole-run
// cycles as TotalInsts × CPI, and the spread of per-window CPIs yields
// a 95% confidence interval on the estimate. A Window embeds its
// session's pipeline.MeasuredWindow; one sum of the windows' Counts
// gives both the CPI and the events Estimate extrapolates.
//
// The windows' checkpoints come from one functional pass (BuildPlan):
// it runs the program to HALT, counting it while keeping a bounded,
// thinning grid of checkpoints, then schedules the windows against the
// observed count and re-forwards each window's starting state from the
// nearest grid checkpoint.
//
// Consecutive checkpoints share every memory page the program did not
// write between them (emu snapshots are copy-on-write), in a built plan
// and in one decoded from the store alike, and Plan.Bytes counts a
// shared page once.
//
// While fast-forwarding, the emulator functionally warms the caches
// and branch predictor by default (pipeline.Warmer observes every
// skipped instruction of a bounded stretch before each window, into a
// pooled front-end that the window's session then takes over), which
// is what makes a couple hundred
// instructions of detailed warmup sufficient; Config.ColdStart
// disables warming for regimes that prefer cheaper fast-forward and a
// longer detailed warmup.
//
// Warming depends only on the plan window and the front-end geometry
// (pipeline.FrontKey), so it runs once per (window, geometry): the
// first machine records the warmed front-end as a sparse delta plus a
// checkpoint at the window start, and every other machine of that
// geometry resumes the record instead of warming (warm.go). The reuse
// is exact — results are byte-identical to private warming — and
// Warming reports how often it happened. The records die with their
// plan and count in Plan.Bytes; Plan.Warmed tells a cache when to
// re-size a plan it holds.
//
// # Determinism and caching
//
// Because the detailed model is trace-driven — it validates every
// optimizer decision against the oracle's values — a checkpointed
// session retires exactly the same instruction stream as a full run;
// the only approximation is timing cold-start at window boundaries,
// which Warmup bounds. A sampled run is fully deterministic: the same
// (machine config, program, regime) always yields an identical Result.
//
// Exact and sampled results are distinct estimators of the same
// quantity and must never share a result cache slot: internal/exper
// keys sampled runs by Config.Key (the canonical regime string) in
// addition to the machine config, both in its in-memory cache and in
// the persistent store (internal/store), where sampled entries form
// their own namespace.
//
// # Short programs
//
// A program too short to sample profitably (it would end inside a
// handful of detailed windows) is simulated exactly instead and
// reported with ExactFallback set — sampling it would only add
// estimation error on top of comparable cost.
package sample
