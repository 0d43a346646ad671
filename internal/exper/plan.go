package exper

// The plan cache: the engine-level layer that makes a sampled sweep
// cell cost one architectural pass instead of one per machine
// configuration.
//
// A plan, keyed by (benchmark, effective scale, sampling regime), is
// the config-independent window schedule of a sampled run
// (sample.BuildPlan): one whole-program fast-forward with a checkpoint
// per window, replayed by every configuration through
// sample.RunPlanned. The fast-forward dominates sampled-run cost, so
// this is what turns an N-config sampled sweep cell into 1
// architectural pass + N cheap window sets.
//
// Plans are the same cache type as the result caches (internal/memo),
// so they share its leader/waiter collapse (one build no matter how
// many configurations ask at once), and they are the only tenant of
// their byte budget (a memo.LRU), which also charges the functional
// warming runs record in them. Exact cells need no such layer: they
// run live (see Runner.simulate), since emulation is a small share of
// a timing pass and a recorded stream cost 88 bytes per dynamic
// instruction.

import (
	"context"

	"repro/internal/fault"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// DefaultTraceBudget caps the resident bytes of sampled-run plans,
// their checkpoints and the shared warming recorded in them (256 MiB).
// A built-in's plan holds 20–150 KiB at its default and 8× scales, so
// the budget keeps the plans of a large suite resident; it bounds
// growth from many scales, regimes and recorded warm geometries.
const DefaultTraceBudget = 256 << 20

// SetTraceBudget replaces the plan budget (in bytes). A budget <= 0
// disables plan caching and releases every resident plan: sampled runs
// then build a plan per run and retain none, with identical results.
// Shrinking the budget evicts least-recently used plans until the
// resident bytes fit.
func (r *Runner) SetTraceBudget(bytes int64) {
	r.planLRU.SetBudget(bytes)
}

type planKey struct {
	bench    string
	scale    int
	sampling string
}

// planBytes is what a resident plan charges the budget.
func planBytes(p *sample.Plan) int64 { return int64(p.Bytes()) }

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
	if r.planLRU.Limit() <= 0 {
		return buildPlanSafe(ctx, bench, scale, sc)
	}
	k := planKey{bench: bench.Name, scale: scale, sampling: sc.Key()}
	plan, leader, err := r.plans.Get(ctx, k, func(ctx context.Context) (*sample.Plan, error) {
		return throughStore(ctx, r, func() store.Key {
			return store.PlanKey(k.bench, k.scale, k.sampling, r.workloadKey(bench, scale))
		}, &r.planStoreHits, &r.planStoreWrites, func() (*sample.Plan, error) {
			plan, err := buildPlanSafe(ctx, bench, scale, sc)
			if err == nil {
				r.planBuilds.Add(1)
			}
			return plan, err
		})
	})
	if err == nil && !leader {
		r.planHits.Add(1)
	}
	return plan, err
}

// seedCount installs a known-exact instruction count into the count
// memo (and the persistent store) without an emulation pass — used
// when a finished exact cell or a sampled run's plan pass has already
// established it.
func (r *Runner) seedCount(bench *workloads.Benchmark, scale int, n uint64) {
	k := countKey{bench: bench.Name, scale: scale}
	if r.counts.Seed(k, n) && r.store.Load() != nil {
		r.storeWrite(context.Background(), store.CountKey(k.bench, k.scale, r.workloadKey(bench, scale)), &store.Count{Insts: n})
	}
}

// buildPlanSafe is sample.BuildPlan behind a panic-containment
// boundary: a plan pass that panics (a broken generated workload, an
// injected fault) yields a *PanicError for this workload's cells
// instead of killing the process with plan-cache waiters wedged on
// done. The plan's own pass counts the program, so no count is passed
// in.
func buildPlanSafe(ctx context.Context, bench *workloads.Benchmark, scale int, sc sample.Config) (plan *sample.Plan, err error) {
	defer fault.CatchPanic(&err, "plan "+bench.Name)
	return sample.BuildPlan(ctx, bench.Program(scale), sc, 0)
}
