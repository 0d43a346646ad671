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

// SetTraceBudget replaces the plan budget (in bytes). Shrinking the
// budget evicts least-recently used plans until the resident bytes fit;
// a budget <= 0 releases every resident plan and retains none, so
// sampled runs build a plan per run (concurrent requests still share
// one build), with identical results.
func (r *Runner) SetTraceBudget(bytes int64) {
	r.planLRU.SetBudget(bytes)
}

// planBytes is what a resident plan charges the budget.
func planBytes(p *sample.Plan) int64 { return int64(p.Bytes()) }

// planFor returns the sampled-run window plan k (a store.PlanKey of
// bench) under the regime sc, building it on first use and collapsing
// concurrent requests. sc must be normalized. A plan the budget cannot
// hold is handed to the requests waiting on it and retained nowhere.
// Call with a worker-pool slot held: the leader builds under the
// caller's slot.
//
// When a store is attached the in-memory plan cache layers over it
// exactly like the result caches: the leader consults the store before
// building (a hit installs the persisted plan and skips the
// fast-forward entirely — that is what lets sweep shards in separate
// processes share one BuildPlan per regime), and persists every plan it
// does build before waking waiters. Store reads that fail — missing,
// torn mid-write, or written by a build with a different plan codec —
// are misses: the leader rebuilds and the Put heals the entry.
func (r *Runner) planFor(ctx context.Context, bench *workloads.Benchmark, k store.Key, sc sample.Config) (*sample.Plan, error) {
	plan, leader, err := r.plans.Get(ctx, k, func(ctx context.Context) (*sample.Plan, error) {
		return throughStore(ctx, r, k, &r.planStoreHits, &r.planStoreWrites, func() (*sample.Plan, error) {
			plan, err := buildPlanSafe(ctx, bench, k.Scale, sc)
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
