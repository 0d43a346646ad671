// Package pipeline implements the cycle-level out-of-order processor
// model the paper evaluates continuous optimization on: a deeply
// pipelined (Pentium-4-like, 20-cycle minimum branch resolution loop),
// 4-wide machine with four 8-entry schedulers, a 160-entry instruction
// window, and the Table 2 memory hierarchy.
//
// # Model
//
// The model is trace driven: an architectural emulator (the oracle)
// supplies the correct-path dynamic instruction stream, and the pipeline
// replays it through fetch, decode, rename/optimize, dispatch, issue,
// execute and retire, charging realistic latencies and resource
// conflicts. On a branch misprediction, fetch stalls until the branch
// resolves — at execute, or at the rename stage when the continuous
// optimizer resolves it early — then restarts down the front end; this
// reproduces exactly the resolution-time effect the paper measures while
// avoiding wrong-path simulation.
//
// # Sessions
//
// Config describes one machine (DefaultConfig is the paper's Table 2
// machine; Config.Baseline disables the optimizer). New binds a
// validated Config to a program as a single-use Session, and
// Session.Run drives it under a context.Context with RunOpts: cycle
// and retirement limits (Result.Truncated reports a cut), interval
// telemetry (Result.Intervals / RunOpts.Observer), and a
// warmup-measurement boundary (Result.Measured) that sampled
// simulation uses to discard detailed-window cold start.
// NewFromCheckpoint seeds a session from an emulator snapshot instead
// of the program entry, and Warmer.Seed hands a running emulator plus
// functionally warmed caches and predictor to a session, which is how
// internal/sample drops into detailed simulation mid-program.
//
// Sessions do not build their caches and branch predictor: they take
// them, reset, from a pool per front-end geometry and return them when
// Run ends. Run's Result is the caller's own copy and keeps nothing of
// the session alive.
//
// # Identity and caching
//
// Config.Key returns a canonical content hash of the machine
// configuration with the display Name excluded: two configs describing
// the same machine hash identically, which is the deduplication key
// for the experiment engine's in-memory cache (internal/exper) and the
// persistent result store (internal/store) alike. Result is
// self-describing for the same reason — it carries ConfigKey, Program
// and Scale alongside the counters, so a stored result can be
// attributed without external metadata. Simulation is deterministic:
// the same (Config, program) pair always produces an identical Result,
// which is what makes caching, sampling, and byte-identical golden
// artifacts sound.
package pipeline
