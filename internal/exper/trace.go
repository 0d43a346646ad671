package exper

// Decode-once caches: the engine-level layer that makes a sweep cell
// cost one architectural pass instead of one per machine configuration.
//
// Two caches live here, sharing one memory budget and one recency list
// (a shared lru; see cache.go):
//
//   - the trace cache, keyed by (benchmark, effective scale): the
//     program's full dynamic instruction stream (emu.Record), replayed
//     by every exact simulation of that workload through
//     pipeline.NewReplay instead of re-driving a live emulator;
//   - the plan cache, keyed by (benchmark, effective scale, sampling
//     regime): the config-independent window schedule of a sampled run
//     (sample.BuildPlan) — one whole-program fast-forward with a
//     checkpoint per window — replayed by every configuration through
//     sample.RunPlanned. The fast-forward dominates sampled-run cost,
//     so this is what turns an N-config sampled sweep cell into 1
//     architectural pass + N cheap window sets.
//
// Both are the same cache type as the result caches, so they share its
// leader/waiter collapse (one recording no matter how many
// configurations ask at once), and both degrade gracefully: a workload
// whose trace would not fit the budget is negative-cached as a nil
// trace and simulated live, and SetTraceBudget(0) turns the whole layer
// off — sampled runs then build a plan per run and retain none.

import (
	"context"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// DefaultTraceBudget caps the resident bytes of recorded traces and
// sampled-run plans (256 MiB). At 64 bytes per trace record this
// admits ~4M dynamic instructions of trace — several default-scale
// workloads at once.
const DefaultTraceBudget = 256 << 20

// SetTraceBudget replaces the memory budget (in bytes) for the trace
// and plan caches. A budget <= 0 disables decode-once replay entirely
// and releases everything resident: simulations drive live emulators
// and sampled runs fast-forward per configuration, exactly as if the
// caches did not exist. Shrinking the budget evicts least-recently
// used entries until the resident bytes fit.
func (r *Runner) SetTraceBudget(bytes int64) {
	r.traceLRU.setBudget(bytes)
}

type planKey struct {
	bench    string
	scale    int
	sampling string
}

// traceBytes and planBytes are what a resident trace or plan charges
// the budget. A nil trace — the negative cache entry of a workload too
// big for the budget — costs nothing.
func traceBytes(tr *emu.Trace) int64 {
	if tr == nil {
		return 0
	}
	return int64(tr.Bytes())
}

func planBytes(p *sample.Plan) int64 { return int64(p.Bytes()) }

// traceFor returns the recorded dynamic stream for bench at scale,
// recording it on first use and collapsing concurrent requests onto
// one recording. A nil trace with nil error means "replay unavailable"
// — the cache is disabled or the program does not fit the budget — and
// the caller falls back to live emulation. Call with a worker-pool
// slot held: the leader records under the caller's slot.
func (r *Runner) traceFor(ctx context.Context, bench *workloads.Benchmark, scale int) (*emu.Trace, error) {
	budget := r.traceLRU.limit()
	if budget <= 0 {
		return nil, nil
	}
	k := countKey{bench: bench.Name, scale: scale}
	tr, leader, err := r.traces.get(ctx, k, func(ctx context.Context) (*emu.Trace, error) {
		tr, err := recordSafe(ctx, bench, scale, uint64(budget)/emu.DynInstBytes)
		switch {
		case err != nil && (ctxErr(err) || fault.AsPanic(err) != nil):
			// A panicking recorder is a broken workload, not an
			// over-budget one: memoize the failure (waiters and
			// retries fail fast) instead of negative-caching it as
			// "simulate live", which would re-panic per config.
			return nil, err
		case err != nil:
			// The program does not fit the budget: negative-cache
			// the fact so later configurations skip straight to
			// live emulation without re-recording.
			return nil, nil
		}
		r.traceRecords.Add(1)
		return tr, nil
	})
	if tr != nil {
		if leader {
			// A complete trace is also an exact instruction count
			// (HALT is the final record): seed the count memo so
			// sampled runs of this workload skip their counting pass.
			r.seedCount(bench, scale, uint64(tr.Len()))
		} else {
			r.traceHits.Add(1)
		}
	}
	return tr, err
}

// planFor returns the sampled-run window plan for (bench, scale, sc),
// building it on first use and collapsing concurrent requests. sc must
// be normalized. With the cache disabled the plan is built for this
// run alone and retained nowhere. Call with a worker-pool slot held:
// the leader builds under the caller's slot.
//
// When a store is attached the in-memory plan cache layers over it
// exactly like the result caches: the leader consults the store before
// building (a hit installs the persisted plan and skips the
// fast-forward entirely — that is what lets sweep shards in separate
// processes share one BuildPlan per regime), and persists every plan it
// does build before waking waiters. Store reads that fail — missing,
// torn mid-write, or written by a build with a different plan codec —
// are misses: the leader rebuilds and the Put heals the entry.
func (r *Runner) planFor(ctx context.Context, bench *workloads.Benchmark, scale int, sc sample.Config) (*sample.Plan, error) {
	if r.traceLRU.limit() <= 0 {
		return buildPlanSafe(ctx, bench, scale, sc)
	}
	k := planKey{bench: bench.Name, scale: scale, sampling: sc.Key()}
	plan, leader, err := r.plans.get(ctx, k, func(ctx context.Context) (*sample.Plan, error) {
		var sk store.Key
		if r.store.Load() != nil {
			sk = store.PlanKey(k.bench, k.scale, k.sampling, r.workloadKey(bench, scale))
			var cached sample.Plan
			if r.storeRead(ctx, sk, &cached) {
				r.planStoreHits.Add(1)
				return &cached, nil
			}
		}
		plan, err := buildPlanSafe(ctx, bench, scale, sc)
		if err != nil {
			return nil, err
		}
		r.planBuilds.Add(1)
		if r.storeWrite(ctx, sk, plan) {
			r.planStoreWrites.Add(1)
		}
		return plan, nil
	})
	if err == nil && !leader {
		r.planHits.Add(1)
	}
	return plan, err
}

// seedCount installs a known-exact instruction count into the count
// memo (and the persistent store) without an emulation pass — used
// when a full trace recording or a sampled run's plan pass has already
// established it.
func (r *Runner) seedCount(bench *workloads.Benchmark, scale int, n uint64) {
	k := countKey{bench: bench.Name, scale: scale}
	if r.counts.seed(k, n) && r.store.Load() != nil {
		r.storePut(context.Background(), store.CountKey(k.bench, k.scale, r.workloadKey(bench, scale)), &store.Count{Insts: n})
	}
}

// recordSafe is emu.Record behind a panic-containment boundary: a
// recorder that panics (a broken generated workload, an injected
// fault) yields a *PanicError for this workload's cells instead of
// killing the process with trace-cache waiters wedged on done.
func recordSafe(ctx context.Context, bench *workloads.Benchmark, scale int, maxInsts uint64) (tr *emu.Trace, err error) {
	defer fault.CatchPanic(&err, "trace "+bench.Name)
	return emu.Record(ctx, bench.Program(scale), maxInsts)
}

// buildPlanSafe is sample.BuildPlan behind the same boundary. The
// plan's own pass counts the program, so no count is passed in.
func buildPlanSafe(ctx context.Context, bench *workloads.Benchmark, scale int, sc sample.Config) (plan *sample.Plan, err error) {
	defer fault.CatchPanic(&err, "plan "+bench.Name)
	return sample.BuildPlan(ctx, bench.Program(scale), sc, 0)
}
