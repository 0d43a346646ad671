package exper

// Decode-once caches: the engine-level layer that makes a sweep cell
// cost one architectural pass instead of one per machine configuration.
//
// Two caches live here, sharing one memory budget and one LRU clock:
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
// Both caches use the same leader/waiter collapse as the result caches
// (one recording no matter how many configurations ask at once), and
// both degrade gracefully: a workload whose trace would not fit the
// budget is negative-cached and simulated live, and SetTraceBudget(0)
// turns the whole layer off.

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
	r.tmu.Lock()
	defer r.tmu.Unlock()
	r.traceBudget = bytes
	if bytes <= 0 {
		for k, e := range r.traces {
			if e.ready {
				r.traceBytes -= int64(e.bytes)
				delete(r.traces, k)
			}
		}
		for k, e := range r.plans {
			if e.ready {
				r.traceBytes -= int64(e.bytes)
				delete(r.plans, k)
			}
		}
		return
	}
	r.evictLocked(nil)
}

// cacheEntry is one slot of the trace or plan cache. done/err follow
// the singleflight protocol (leader computes, waiters block on done);
// ready, bytes and use are guarded by Runner.tmu and drive the shared
// LRU budget. A ready trace entry with a nil trace is the negative
// cache: the workload exceeded the budget and is simulated live.
type cacheEntry struct {
	done  chan struct{}
	err   error
	tr    *emu.Trace
	plan  *sample.Plan
	ready bool
	bytes uint64
	use   uint64
}

type planKey struct {
	bench    string
	scale    int
	sampling string
}

// touchLocked bumps the entry's LRU clock. Callers hold tmu.
func (r *Runner) touchLocked(e *cacheEntry) {
	r.traceClock++
	e.use = r.traceClock
}

// evictLocked drops ready entries in LRU order until the resident
// bytes fit the budget, never evicting keep (the entry being
// installed). Callers hold tmu.
func (r *Runner) evictLocked(keep *cacheEntry) {
	for r.traceBytes > r.traceBudget {
		var (
			oldest  *cacheEntry
			oldPlan planKey
			isPlan  bool
			tk      countKey
		)
		for k, e := range r.traces {
			if e.ready && e != keep && (oldest == nil || e.use < oldest.use) {
				oldest, tk, isPlan = e, k, false
			}
		}
		for k, e := range r.plans {
			if e.ready && e != keep && (oldest == nil || e.use < oldest.use) {
				oldest, oldPlan, isPlan = e, k, true
			}
		}
		if oldest == nil {
			return
		}
		if isPlan {
			delete(r.plans, oldPlan)
		} else {
			delete(r.traces, tk)
		}
		r.traceBytes -= int64(oldest.bytes)
	}
}

// publishLocked installs a completed entry's accounting: marks it
// ready, charges its bytes to the shared gauge (only while the entry
// is still the one resident under its slot — a concurrent
// SetTraceBudget(0) may have dropped it), and evicts older entries to
// fit. Callers hold tmu.
func (r *Runner) publishLocked(e, resident *cacheEntry, bytes uint64) {
	e.ready = true
	e.bytes = bytes
	r.touchLocked(e)
	if resident == e {
		r.traceBytes += int64(bytes)
		r.evictLocked(e)
	}
}

// traceFor returns the recorded dynamic stream for bench at scale,
// recording it on first use and collapsing concurrent requests onto
// one recording. A nil trace with nil error means "replay unavailable"
// — the cache is disabled or the program does not fit the budget — and
// the caller falls back to live emulation. Call with a worker-pool
// slot held: the leader records under the caller's slot.
func (r *Runner) traceFor(ctx context.Context, bench *workloads.Benchmark, scale int) (*emu.Trace, error) {
	k := countKey{bench: bench.Name, scale: scale}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.tmu.Lock()
		budget := r.traceBudget
		if budget <= 0 {
			r.tmu.Unlock()
			return nil, nil
		}
		e, ok := r.traces[k]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			r.traces[k] = e
		}
		r.tmu.Unlock()

		if !ok {
			maxInsts := uint64(budget) / emu.DynInstBytes
			tr, err := recordSafe(ctx, bench, scale, maxInsts)
			switch {
			case err != nil && ctxErr(err):
				r.tmu.Lock()
				if r.traces[k] == e {
					delete(r.traces, k)
				}
				r.tmu.Unlock()
				e.err = err
				close(e.done)
				return nil, err
			case err != nil && fault.AsPanic(err) != nil:
				// A panicking recorder is a broken workload, not an
				// over-budget one: memoize the failure (waiters and
				// retries fail fast) instead of negative-caching it as
				// "simulate live", which would re-panic per config.
				e.err = err
				close(e.done)
				return nil, err
			case err != nil:
				// The program does not fit the budget: negative-cache
				// the fact so later configurations skip straight to
				// live emulation without re-recording.
				r.tmu.Lock()
				r.publishLocked(e, r.traces[k], 0)
				r.tmu.Unlock()
				close(e.done)
				return nil, nil
			}
			r.traceRecords.Add(1)
			r.tmu.Lock()
			e.tr = tr
			r.publishLocked(e, r.traces[k], tr.Bytes())
			r.tmu.Unlock()
			close(e.done)
			// A complete trace is also an exact instruction count
			// (HALT is the final record): seed the count memo so
			// sampled runs of this workload skip their counting pass.
			r.seedCount(bench, scale, uint64(tr.Len()))
			return tr, nil
		}

		select {
		case <-e.done:
			if e.err != nil {
				if ctxErr(e.err) {
					continue // leader canceled; take over
				}
				return nil, e.err
			}
			if e.tr == nil {
				return nil, nil // negative-cached: too big
			}
			r.traceHits.Add(1)
			r.tmu.Lock()
			r.touchLocked(e)
			r.tmu.Unlock()
			return e.tr, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// planFor returns the sampled-run window plan for (bench, scale, sc),
// building it on first use and collapsing concurrent requests. sc must
// be normalized. A nil plan with nil error means the cache is disabled
// and the caller should run the unplanned path. Call with a
// worker-pool slot held: the leader builds under the caller's slot.
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
	k := planKey{bench: bench.Name, scale: scale, sampling: sc.Key()}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.tmu.Lock()
		if r.traceBudget <= 0 {
			r.tmu.Unlock()
			return nil, nil
		}
		e, ok := r.plans[k]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			r.plans[k] = e
		}
		r.tmu.Unlock()

		if !ok {
			var sk store.Key
			if r.store.Load() != nil {
				sk = store.PlanKey(k.bench, k.scale, k.sampling, r.workloadKey(bench, scale))
				var cached sample.Plan
				if r.storeRead(ctx, sk, &cached) {
					r.planStoreHits.Add(1)
					r.tmu.Lock()
					e.plan = &cached
					r.publishLocked(e, r.plans[k], cached.Bytes())
					r.tmu.Unlock()
					close(e.done)
					return &cached, nil
				}
			}
			plan, err := buildPlanSafe(ctx, bench, scale, sc)
			if err != nil {
				if ctxErr(err) {
					r.tmu.Lock()
					if r.plans[k] == e {
						delete(r.plans, k)
					}
					r.tmu.Unlock()
				}
				e.err = err
				close(e.done)
				return nil, err
			}
			r.planBuilds.Add(1)
			if r.storeWrite(ctx, sk, plan) {
				r.planStoreWrites.Add(1)
			}
			r.tmu.Lock()
			e.plan = plan
			r.publishLocked(e, r.plans[k], plan.Bytes())
			r.tmu.Unlock()
			close(e.done)
			return plan, nil
		}

		select {
		case <-e.done:
			if e.err != nil {
				if ctxErr(e.err) {
					continue
				}
				return nil, e.err
			}
			r.planHits.Add(1)
			r.tmu.Lock()
			r.touchLocked(e)
			r.tmu.Unlock()
			return e.plan, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// seedCount installs a known-exact instruction count into the count
// memo (and the persistent store) without an emulation pass — used
// when a full trace recording or a sampled run's plan pass has already
// established it.
func (r *Runner) seedCount(bench *workloads.Benchmark, scale int, n uint64) {
	k := countKey{bench: bench.Name, scale: scale}
	r.cmu.Lock()
	_, ok := r.counts[k]
	if !ok {
		e := &flight[uint64]{done: make(chan struct{}), val: n}
		close(e.done)
		r.counts[k] = e
	}
	r.cmu.Unlock()
	if !ok && r.store.Load() != nil {
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
