// Package exper is the experiment engine: it executes (machine config,
// benchmark, scale) simulations through a bounded worker pool and
// memoizes every result, so a process that renders many paper artifacts
// simulates each unique triple exactly once no matter how many tables
// and figures request it.
//
// # Caching and deduplication
//
// Every engine memo is keyed by the store.Key its values have on disk:
// for a cell, (Config.Key(), benchmark name, effective scale, the
// workload's source fingerprint and, when sampled, the regime key),
// built once per request. Config.Key is a content hash that ignores
// the display Name, so two experiments that describe the same machine
// under different labels share one simulation; the cached Result
// carries the Machine name of whichever request ran it first.
// Concurrent requests for the same key are collapsed singleflight-style:
// the first caller simulates, later callers block and receive the same
// *pipeline.Result. Because the simulator is deterministic, memoization
// also makes sweep output independent of the pool's parallelism. Every
// engine memo — exact results, sampled estimates, instruction counts
// and sampled-run plans — is an internal/memo Cache, the one
// leader/waiter implementation in the program.
//
// # Persistent store
//
// SetStore layers a durable, content-addressed result store
// (internal/store) below the in-memory cache. A cache miss then reads
// through to disk before simulating, and every freshly computed result
// is persisted before its waiters are released — so results survive
// process exit, a sweep interrupted by Ctrl-C or a crash resumes from
// the cells it completed, and a fully warm rerun performs zero
// simulations. The store uses exactly the engine's cache keys: exact
// results, sampled estimates (keyed additionally by sampling regime),
// sampled-run plans and instruction counts (written by InstCount only)
// occupy disjoint namespaces, and a corrupt or unreadable entry reads
// as a miss and is resimulated, never surfaced as an error. Stats
// separates Simulations (misses that cost real work), MemHits and
// StoreHits so warm runs are observable.
//
// # Cancellation
//
// Every entry point takes a context.Context and returns an error:
// canceling the context aborts in-flight simulations promptly. The
// collapse is cancellation-safe — when the caller that is executing a
// simulation (the leader) is canceled, the work is not poisoned:
// waiting callers observe the abandoned slot and one of them re-runs
// the simulation under its own context. A leader that panics vacates
// its slot the same way.
//
// # Observation
//
// Observe registers engine-level progress observers: each running
// simulation then reports interval telemetry (pipeline.IntervalStats
// tagged with the run's identity) as it crosses interval boundaries,
// which is how long sweeps become watchable.
//
// # Sampled simulation
//
// RunSampled, SweepSampled and Matrix with a non-nil *sample.Config
// are the sampled-simulation mode: cells become statistical estimates
// from periodic detailed windows (internal/sample) instead of exact
// runs. Sampled results are memoized in their own cache, keyed
// additionally by the sampling regime, so an exact result and a
// sampled estimate of the same triple can never collide — in memory or
// in the store. Engine-level progress observers apply to exact
// simulations only: a sampled run's detailed windows are hundreds of
// instructions each — orders of magnitude shorter than a telemetry
// interval — so no interval would ever close inside one.
//
// # Declarative sweeps
//
// On top of the Runner, SweepSpec (spec.go) describes a whole experiment
// declaratively — a benchmark filter, a reference machine, and a list of
// labeled config variants — and can be loaded from JSON, which is how
// the contopt "sweep" subcommand lets users author new experiments
// without writing Go.
package exper
