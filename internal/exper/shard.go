package exper

// Sharded sweeps: run one sweep spec across independent processes that
// coordinate only through the shared persistent store. Each shard owns
// a deterministic subset of the sweep's (benchmark, config) cells —
// cell index modulo the shard count — simulates exactly those, and
// persists every result (and, for sampled sweeps, every window plan)
// through the store as a side effect. No shard talks to another: the
// store is the rendezvous, which is what makes the scheme crash-safe
// for free (a killed shard restarts and re-derives its missing cells
// from what survived) and lets shards run on different machines
// sharing a directory. A final merge invocation assembles the table
// from store entries alone, reporting any cells no shard has finished.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/sample"
)

// Shard identifies one partition of a sweep: this process owns every
// cell whose index ≡ Index (mod Count). The zero value is invalid;
// the single-process "partition" is Shard{Index: 0, Count: 1}.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses the CLI form "i/n" (e.g. "0/3", "2/3").
func ParseShard(s string) (Shard, error) {
	var sh Shard
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return sh, fmt.Errorf("exper: shard %q: want the form i/n (e.g. 0/3)", s)
	}
	var err error
	if sh.Index, err = strconv.Atoi(i); err != nil {
		return sh, fmt.Errorf("exper: shard %q: want the form i/n (e.g. 0/3)", s)
	}
	if sh.Count, err = strconv.Atoi(n); err != nil {
		return sh, fmt.Errorf("exper: shard %q: want the form i/n (e.g. 0/3)", s)
	}
	if err := sh.Validate(); err != nil {
		return sh, err
	}
	return sh, nil
}

// Validate rejects shards that cannot partition anything.
func (sh Shard) Validate() error {
	if sh.Count < 1 {
		return fmt.Errorf("exper: shard count %d must be >= 1", sh.Count)
	}
	if sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("exper: shard index %d out of range [0, %d)", sh.Index, sh.Count)
	}
	return nil
}

// String renders the shard in its CLI form.
func (sh Shard) String() string { return fmt.Sprintf("%d/%d", sh.Index, sh.Count) }

// owns reports whether this shard owns cell idx. Cells are enumerated
// benchmark-major (idx = benchIdx*len(configs) + configIdx), and the
// modulo assignment interleaves configs across shards — each shard
// touches every benchmark, so the sampled-run plans each shard builds
// are ones it reuses itself.
func (sh Shard) owns(idx int) bool { return idx%sh.Count == sh.Index }

// ShardReport summarizes one shard invocation.
type ShardReport struct {
	Shard      Shard
	TotalCells int
	OwnedCells int
}

// SweepShard executes this shard's cells of spec — exact when sc is
// nil, sampled under *sc otherwise — persisting every result in the
// attached store and discarding them in memory: the store is the only
// output channel, so a store must be attached (SetStore) before
// calling. Cells another shard or an earlier crashed run already
// persisted are store hits, not re-simulations, which is the whole
// resume story: rerunning a killed shard performs exactly the work
// that did not survive. Cancellation matches Sweep: in-flight cells
// abort promptly and the first error is returned.
func (r *Runner) SweepShard(ctx context.Context, spec *SweepSpec, sh Shard, sc *sample.Config) (ShardReport, error) {
	rep := ShardReport{Shard: sh}
	if err := sh.Validate(); err != nil {
		return rep, err
	}
	if r.store.Load() == nil {
		return rep, fmt.Errorf("exper: a sharded sweep coordinates through the store; attach one with SetStore")
	}
	benches, cfgs, err := spec.Resolve()
	if err != nil {
		return rep, err
	}
	if sc != nil {
		if err := sc.Normalize().Validate(); err != nil {
			return rep, err
		}
	}
	rep.TotalCells = len(benches) * len(cfgs)
	for idx := range rep.TotalCells {
		if sh.owns(idx) {
			rep.OwnedCells++
		}
	}
	return rep, r.fanOut(ctx, benches, cfgs, spec.Scale, sc, sh.owns, func(int, int, *pipeline.Result) {})
}

// SweepMerge assembles spec's full table from the store alone — no
// simulation, exact or sampled per sc as in SweepShard. It is the
// terminal step of a sharded run: once every shard has exited, merge
// reads back what they persisted. When cells are missing (a shard was
// killed and not rerun, or too few shards were launched) the table is
// withheld: merge returns a nil result and the missing cells as
// "benchmark@scale label" strings, so the caller can report exactly
// which shard work remains instead of printing a partial table that
// looks complete.
func (r *Runner) SweepMerge(spec *SweepSpec, sc *sample.Config) (*SweepResult, []string, error) {
	if r.store.Load() == nil {
		return nil, nil, fmt.Errorf("exper: merging a sharded sweep reads the store; attach one with SetStore")
	}
	benches, cfgs, err := spec.Resolve()
	if err != nil {
		return nil, nil, err
	}
	if sc != nil {
		n := *sc // cellKey normalizes in place; leave the caller's alone
		sc = &n
	}
	cells := make([][]*pipeline.Result, len(benches))
	var missing []string
	for bi, b := range benches {
		cells[bi] = make([]*pipeline.Result, len(cfgs))
		for ci, cfg := range cfgs {
			k, err := cellKey(&cfg, b, spec.Scale, sc)
			if err != nil {
				return nil, nil, err
			}
			var hit bool
			if sc != nil {
				var sr sample.Result
				if hit = r.storeRead(context.Background(), k, &sr); hit {
					cells[bi][ci] = sr.Estimate()
				}
			} else {
				var res pipeline.Result
				if hit = r.storeRead(context.Background(), k, &res); hit {
					cells[bi][ci] = &res
				}
			}
			if hit {
				r.storeHits.Add(1)
				continue
			}
			missing = append(missing, fmt.Sprintf("%s@%d %s", b.Name, k.Scale, cfg.Name))
		}
	}
	if len(missing) > 0 {
		return nil, missing, nil
	}
	return &SweepResult{Spec: spec, Benches: benches, Cells: cells}, nil, nil
}
