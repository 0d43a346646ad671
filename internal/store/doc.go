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
// (sample.Config.Key) — and the store finds an entry by that Key alone.
// Four entry kinds occupy disjoint namespaces and can never collide:
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
//     .PlanCodecVersion) on top of the record's version; a version
//     mismatch reads as corrupt and triggers a rebuild.
//
// Because pipeline.Config.Key hashes the configuration's content (the
// display name excluded), two sweeps that describe the same machine
// under different labels share one stored entry, exactly as they share
// one in-memory cache slot.
//
// # On-disk format
//
// The store is a directory of append-only segments, dir/segments/*.seg,
// after Bitcask (Sheehy & Smith, 2010) and the log-structured file
// system (Rosenblum & Ousterhout, 1992). Each Store handle's first Put
// creates a segment of its own, under a unique name made with O_EXCL,
// and every Put of that handle appends one record to it: no file per
// entry. As in Bitcask, a record is one frame: a magic number ("cos2"),
// the head's and the payload's lengths, a CRC-32C of those and of the
// head, the head, the payload, a newline. The head is a small JSON
// object — the codec version, the full Key written back in clear (so
// the store can be inspected, verified, and migrated without external
// metadata) and a SHA-256 of the payload. The payload is the result
// struct encoded as JSON, which round-trips every exported field of
// pipeline.Result (including Intervals, Measured, Truncated and the
// optimizer counters) and sample.Result (including the window series
// and CI fields) exactly.
//
// A handle finds records through an in-memory index from Key to
// (segment, offset, length), built at Open by stepping from record to
// record and reading heads only, never payloads. A key the index lacks
// may have been written by another handle or process since: the miss
// reads the segment directory once, stats each segment, and indexes the
// records appended since the last look — it never creates a file. Of
// several records of one key, the last one written answers.
//
// # Writes are durable, and appends never interleave
//
// Put appends its record with one write and fsyncs it before it
// returns, so a result is on disk before anyone waiting on it wakes;
// the Put that creates a segment also syncs the segments directory, and
// GC syncs it after writing its compacted segment, before it removes
// the segments that one replaces. A segment has one writer, which holds
// the segment's advisory lock (flock) across each append; GC takes the
// same lock before it compacts a segment away, and a writer that finds
// its segment removed or changed starts a new one. A crash mid-append
// leaves a torn tail — a record the segment ends inside of — which
// readers skip as a miss; a failed append is cut back, and its segment
// is dropped so that no record ever follows a partial one. Concurrent
// writers of the same key are safe — the simulator is deterministic, so
// both write identical payloads and either record answers.
//
// # Corruption tolerance
//
// Reads never trust the disk: an entry whose frame or head is damaged,
// whose version is unknown, whose stored Key does not match the
// requested one, whose checksum does not match the payload, or whose
// payload fails to decode is reported as a *CorruptError — and callers
// layering the store under a cache (the experiment engine) treat any
// read error as a miss and resimulate, so a damaged store degrades to a
// cold one, never to a wrong or crashed run. A record whose frame is
// damaged hides the rest of its segment, which is reported as one
// corrupt entry; a segment of the earlier "cos1" layout, whose records
// framed a JSON envelope, is one such entry, and its keys are misses. A
// later successful Put supersedes a damaged entry; GC compacts the
// segments it can lock into one, keeping each key's latest intact
// record and dropping corrupt and superseded records (a "cos1" segment
// whole) and torn tails older than an hour (a younger one may be an
// append in flight); List and `contopt store verify` report corrupt
// entries without deleting.
//
// # Staleness
//
// The key covers everything about a request except the simulator
// implementation itself: machine config and kernel source changes are
// both content-hashed, but a change to the timing model's semantics
// (a bug fix that alters cycle counts) makes every stored result
// stale with no key change. Bump Version alongside such a change —
// old entries then read as unknown-version and are resimulated — or
// drop the store directory. Earlier layouts are not read: a "cos1"
// segment reads as corrupt and GC removes it, and the files of the
// one-file-per-entry layout under dir/entries/ are legacy debris that
// Stat counts and GC removes.
package store
