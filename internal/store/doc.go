// Package store is the persistent, content-addressed result store: it
// keeps finished simulation results on disk so that every process —
// CLI invocations, CI runs, artifact rebuilds — shares one durable
// cache instead of re-simulating from scratch. It is the layer below
// the experiment engine's in-memory memoization (internal/exper):
// the engine stays singleflight-collapsed and process-fast, and the
// store makes what it computes survive process exit.
//
// # Addressing
//
// Entries are addressed by content, not by position: a Key is the
// canonical identity of a result — the machine configuration's content
// hash (pipeline.Config.Key), the benchmark name, a content hash of
// the benchmark's generated source (so editing a kernel invalidates
// its entries instead of serving stale results), the effective
// iteration scale, and (for sampled estimates) the sampling-regime key
// (sample.Config.Key) — and the entry's path is derived from a hash of
// that Key. Four entry kinds occupy disjoint namespaces and can never
// collide:
//
//   - KindExact: a cycle-exact pipeline.Result
//   - KindSampled: a sample.Result estimate, additionally keyed by the
//     sampling regime — an exact result and a sampled estimate of the
//     same triple are different estimators of the same quantity and
//     must never share a slot
//   - KindCount: a benchmark's dynamic instruction count (no machine
//     configuration — the architectural emulator defines it), written
//     only by the engine's InstCount: no simulation cell needs one
//   - KindPlan: a sampled-run window plan (sample.Plan — the window
//     schedule plus an architectural checkpoint per window), keyed by
//     benchmark, scale, workload hash and sampling regime but no
//     machine configuration: the plan is the config-independent half
//     of a sampled run, so one stored plan serves every configuration
//     of a sweep, across every process that shares the store. The
//     plan payload carries its own codec version (sample
//     .PlanCodecVersion) on top of the envelope version; a version
//     mismatch reads as corrupt and triggers a rebuild.
//
// Because pipeline.Config.Key hashes the configuration's content (the
// display name excluded), two sweeps that describe the same machine
// under different labels share one stored entry, exactly as they share
// one in-memory cache slot.
//
// # On-disk format
//
// Each entry is one JSON file under dir/entries/<aa>/<address>.json
// (sharded by the first address byte). The file is a self-describing
// envelope: a format marker, a codec version, the full Key written
// back in clear (so the store can be inspected, verified, and migrated
// without external metadata), a SHA-256 checksum of the payload, and
// the payload itself — the result struct encoded as JSON, which
// round-trips every exported field of pipeline.Result (including
// Intervals, Measured, Truncated and the optimizer counters) and
// sample.Result (including the window series and CI fields) exactly.
//
// Writes are atomic: the envelope is written to a temporary file in
// the destination directory, synced, and renamed into place, so a
// crash or Ctrl-C mid-write can never leave a half-written entry
// visible. Concurrent writers of the same key are safe — the simulator
// is deterministic, so both write identical bytes and the last rename
// wins.
//
// # Corruption tolerance
//
// Reads never trust the disk: an entry whose envelope fails to parse,
// whose format or version is unknown, whose stored Key does not match
// the requested one, or whose checksum does not match the payload is
// reported as a *CorruptError — and callers layering the store under a
// cache (the experiment engine) treat any read error as a miss and
// resimulate, so a damaged store degrades to a cold one, never to a
// wrong or crashed run. A later successful Put overwrites the damaged
// entry; GC deletes corrupt entries and abandoned temporary files in
// bulk; Verify reports them without deleting.
//
// # Staleness
//
// The key covers everything about a request except the simulator
// implementation itself: machine config and kernel source changes are
// both content-hashed, but a change to the timing model's semantics
// (a bug fix that alters cycle counts) makes every stored result
// stale with no key change. Bump Version alongside such a change —
// old entries then read as unknown-version and are resimulated — or
// drop the store directory.
package store
