package exper

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// DefaultProgressInterval is the telemetry granularity, in machine
// cycles, used for engine-level observers (the CLI's -progress lines
// and the service's SSE progress events) unless SetProgressInterval
// overrides it.
const DefaultProgressInterval = 250_000

// emuChunk bounds how many instructions the architectural emulator runs
// between context checks in InstCount.
const emuChunk = 1 << 20

// Runner executes simulations with bounded parallelism and memoizes
// results by (config key, benchmark, scale). The zero value is not
// usable; call NewRunner. A Runner is safe for concurrent use.
type Runner struct {
	sem chan struct{}

	// The memo layer, one internal/memo Cache per kind of value, each
	// keyed by the store.Key its values have in the attached store (the
	// durable tier below every one of them): exact results and sampled
	// estimates share the byte budget of resultLRU; instruction counts
	// are retained for the Runner's lifetime; sampled-run plans (see
	// plan.go) have the byte budget of planLRU.
	sims      *memo.Cache[store.Key, *pipeline.Result]
	sampled   *memo.Cache[store.Key, *sample.Result]
	counts    *memo.Cache[store.Key, uint64]
	plans     *memo.Cache[store.Key, *sample.Plan]
	resultLRU *memo.LRU
	planLRU   *memo.LRU

	omu           sync.Mutex
	observers     []func(Progress)
	progressEvery uint64

	store atomic.Pointer[store.Store]

	memHits         atomic.Uint64
	storeHits       atomic.Uint64
	runs            atomic.Uint64
	planHits        atomic.Uint64
	planBuilds      atomic.Uint64
	planStoreHits   atomic.Uint64
	planStoreWrites atomic.Uint64

	// Resilience state (see resilience.go): rmu guards the policy
	// knobs and the jitter PRNG; the counters and degraded flag are
	// atomic because they sit on hot paths.
	rmu           sync.Mutex
	logFn         func(format string, args ...any)
	retryAttempts int
	retryBase     time.Duration
	probeEvery    time.Duration
	watchSoft     time.Duration
	watchHard     time.Duration
	jrng          uint64

	degraded        atomic.Bool
	probeAt         atomic.Int64
	panicsRecovered atomic.Uint64
	storeDegrades   atomic.Uint64
	storeRetries    atomic.Uint64
	watchdogStalls  atomic.Uint64
	watchdogKills   atomic.Uint64
}

// DefaultResultBudget caps the resident bytes of memoized exact and
// sampled results (8 MiB). A result is small — about 0.4 KB exact and
// 2–5 KB sampled (its windows), plus 0.4 KB for its memo slot — so the
// budget holds a couple of thousand sampled estimates. That is over twenty times the hot set of
// a service that keeps re-requesting a reference column plus a handful
// of hot machines over a workload suite (8 benchmarks × 7 machines ×
// exact and sampled ≈ 0.3 MB), while a stream of new cells can no
// longer grow the heap without bound: the least recently used results
// leave memory, and the attached store (the durable tier) answers for
// them if they are asked for again.
const DefaultResultBudget = 8 << 20

// NewRunner builds an engine whose worker pool admits at most
// parallelism concurrent simulations (0 = GOMAXPROCS).
func NewRunner(parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	resultLRU := memo.NewLRU(DefaultResultBudget)
	planLRU := memo.NewLRU(DefaultTraceBudget)
	return &Runner{
		sem:           make(chan struct{}, parallelism),
		sims:          memo.New[store.Key](resultLRU, resultBytes[*pipeline.Result]),
		sampled:       memo.New[store.Key](resultLRU, resultBytes[*sample.Result]),
		counts:        memo.New[store.Key, uint64](nil, nil),
		plans:         memo.New[store.Key](planLRU, planBytes),
		resultLRU:     resultLRU,
		planLRU:       planLRU,
		progressEvery: DefaultProgressInterval,
		retryAttempts: defaultRetryAttempts,
		retryBase:     defaultRetryBase,
		probeEvery:    defaultProbeEvery,
		jrng:          1,
	}
}

// SetStore attaches a persistent result store below the in-memory
// cache: every cache miss first consults the store (read-through), and
// every freshly computed result is persisted before its waiters are
// released (write-behind the memory layer), making results durable
// across processes and sweeps resumable after a crash or Ctrl-C. The
// store sees exactly the engine's cache keys — exact results, sampled
// estimates (regime-keyed), instruction counts and sampled-run window
// plans live in disjoint namespaces — and any store read error,
// including a corrupt entry, is
// treated as a miss and resimulated, never surfaced. Persistence
// failures are also non-fatal: the run still succeeds, it just is not
// durable. Transient I/O errors are retried with bounded backoff, and
// persistent trouble degrades the engine to memory-only caching with a
// periodic re-attach probe (see resilience.go). Attach the store before
// launching work; a nil store detaches.
func (r *Runner) SetStore(st *store.Store) {
	r.store.Store(st)
	// A freshly attached store starts trusted; degraded state described
	// the previous one.
	r.degraded.Store(false)
}

// resultBytes is what a memoized result charges the result budget: the
// result's own bytes plus slotBytes.
func resultBytes[R interface{ Bytes() uint64 }](r R) int64 { return int64(r.Bytes()) + slotBytes }

// slotBytes approximates what a memo slot costs beside its value: the
// map cell and the key's config-hash string, the entry with its done
// channel, and the lru element, item and drop closure — about 0.4 KB,
// as much again as an exact result.
const slotBytes = 400

// Stats reports cache effectiveness. Simulations is the number of
// simulations the engine started executing (including any later
// abandoned by cancellation) — the misses that cost real work. MemHits
// counts requests served from the in-process cache, including requests
// that waited on an in-flight simulation of the same key; StoreHits
// counts cache misses answered by the persistent store without
// simulating (always 0 without SetStore). A warm resumed sweep is the
// pattern {Simulations: 0, StoreHits: n}.
//
// The plan counters measure the plan layer (see plan.go): PlanBuilds
// is the sampled-run fast-forwards actually paid and PlanHits the
// sampled runs that reused a plan — a 30-config sampled sweep cell at
// full effectiveness is {PlanBuilds: 1, PlanHits: 29}. PlanStoreHits
// counts plan-cache misses answered by the persistent store instead of
// a build, and PlanStoreWrites plans persisted after a build (both
// always 0 without SetStore): a sampled sweep sharded across processes
// is the pattern {PlanBuilds: 1 in one process, PlanStoreHits > 0
// everywhere else}. With a zero plan budget (SetTraceBudget(0)) plans
// are counted the same way but retained nowhere: a hit is then only a
// request that joined a build still in flight.
// TraceBytes is the bytes resident plans hold right now under the plan
// budget, including the shared functional warming their runs recorded
// in them; it never exceeds SetTraceBudget. TraceRecords is always 0:
// exact cells run live and record nothing. ResultBytes is the same for
// memoized results under DefaultResultBudget.
//
// The reuse counters are process-wide (every Runner in the process
// shares them): WarmBuilds counts sampled windows that ran their own
// functional warming and recorded it, WarmHits windows that resumed
// another machine's recorded warming instead; BackEndBuilds and
// BackEndReuses count detailed sessions whose back-end (register file,
// optimizer tables, queues, arena) was built afresh or taken from the
// pool.
// Stats marshals to JSON with stable snake_case field names, so
// services can expose a snapshot directly (e.g. a /metrics endpoint),
// and String renders the CLI's "-v" stat lines — one formatter for
// every surface that reports engine effectiveness.
type Stats struct {
	Simulations uint64 `json:"simulations"`
	MemHits     uint64 `json:"mem_hits"`
	StoreHits   uint64 `json:"store_hits"`

	TraceRecords    uint64 `json:"trace_records"`
	PlanBuilds      uint64 `json:"plan_builds"`
	PlanHits        uint64 `json:"plan_hits"`
	PlanStoreHits   uint64 `json:"plan_store_hits"`
	PlanStoreWrites uint64 `json:"plan_store_writes"`
	TraceBytes      uint64 `json:"trace_bytes"`
	ResultBytes     uint64 `json:"result_bytes"`

	WarmBuilds    uint64 `json:"warm_builds"`
	WarmHits      uint64 `json:"warm_hits"`
	BackEndBuilds uint64 `json:"backend_builds"`
	BackEndReuses uint64 `json:"backend_reuses"`

	// The resilience counters (see resilience.go): PanicsRecovered is
	// cells/jobs whose panic was contained; StoreRetries transient store
	// operations retried; StoreDegraded times the engine fell back to
	// memory-only caching; WatchdogStalls soft-deadline diagnostics and
	// WatchdogKills hard-deadline cancellations. All zero on a healthy
	// run — nonzero values are the failure story of the process.
	PanicsRecovered uint64 `json:"panics_recovered"`
	StoreRetries    uint64 `json:"store_retries"`
	StoreDegraded   uint64 `json:"store_degraded"`
	WatchdogStalls  uint64 `json:"watchdog_stalls"`
	WatchdogKills   uint64 `json:"watchdog_kills"`
}

// String renders the snapshot as the human-readable stat lines the
// CLI prints under -v (no trailing newline). Keeping the formatter on
// the type means the CLI and the serve /metrics log lines cannot drift
// apart field-by-field.
func (s Stats) String() string {
	return fmt.Sprintf("engine: %d simulations, %d memory hits, %d store hits; %.1f MiB results resident\n"+
		"engine: %d plans built, %d reused (%d store hits, %d store writes); %.1f MiB resident\n"+
		"engine: reuse: %d windows warmed, %d resumed shared warming; %d back-ends built, %d reused\n"+
		"engine: resilience: %d panics recovered, %d store retries, %d store degradations, %d watchdog stalls, %d watchdog kills",
		s.Simulations, s.MemHits, s.StoreHits, float64(s.ResultBytes)/(1<<20),
		s.PlanBuilds, s.PlanHits,
		s.PlanStoreHits, s.PlanStoreWrites, float64(s.TraceBytes)/(1<<20),
		s.WarmBuilds, s.WarmHits, s.BackEndBuilds, s.BackEndReuses,
		s.PanicsRecovered, s.StoreRetries, s.StoreDegraded, s.WatchdogStalls, s.WatchdogKills)
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	warm, pool := sample.Warming(), pipeline.Reuse()
	return Stats{
		Simulations:     r.runs.Load(),
		MemHits:         r.memHits.Load(),
		StoreHits:       r.storeHits.Load(),
		PlanBuilds:      r.planBuilds.Load(),
		PlanHits:        r.planHits.Load(),
		PlanStoreHits:   r.planStoreHits.Load(),
		PlanStoreWrites: r.planStoreWrites.Load(),
		TraceBytes:      uint64(r.planLRU.Bytes()),
		ResultBytes:     uint64(r.resultLRU.Bytes()),
		WarmBuilds:      warm.Builds,
		WarmHits:        warm.Hits,
		BackEndBuilds:   pool.BackEndBuilds,
		BackEndReuses:   pool.BackEndReuses,
		PanicsRecovered: r.panicsRecovered.Load(),
		StoreRetries:    r.storeRetries.Load(),
		StoreDegraded:   r.storeDegrades.Load(),
		WatchdogStalls:  r.watchdogStalls.Load(),
		WatchdogKills:   r.watchdogKills.Load(),
	}
}

// Progress is one interval of one simulation, tagged with the run's
// identity — what engine-level observers receive.
type Progress struct {
	// Machine and ConfigKey identify the simulated configuration
	// (display name and canonical content hash).
	Machine   string
	ConfigKey string
	// Benchmark and Scale identify the workload.
	Benchmark string
	Scale     int
	// Interval is the telemetry record (cycles, retired, IPC, branch
	// and optimizer events for the interval).
	Interval pipeline.IntervalStats
}

// Observe registers fn as an engine-level progress observer: every
// simulation the engine subsequently starts reports its interval
// telemetry to fn. Observers run synchronously on simulation
// goroutines and must be fast and concurrency-safe. Register observers
// before launching work.
func (r *Runner) Observe(fn func(Progress)) {
	r.omu.Lock()
	defer r.omu.Unlock()
	r.observers = append(r.observers, fn)
}

// SetProgressInterval sets the telemetry granularity (in cycles) for
// engine-level observers. Values <= 0 restore the default.
func (r *Runner) SetProgressInterval(cycles uint64) {
	r.omu.Lock()
	defer r.omu.Unlock()
	if cycles <= 0 {
		cycles = DefaultProgressInterval
	}
	r.progressEvery = cycles
}

// runOpts builds the pipeline RunOpts for one simulation of cfg, whose
// Config.Key() is cfgKey, wiring the engine's observers to it (nil
// Observer and zero Interval when no observer is registered, keeping
// unobserved runs telemetry-free). Engine telemetry is stream-only: the
// cached Result does not retain the interval series, so observing a
// long sweep costs no memory.
func (r *Runner) runOpts(cfg *pipeline.Config, cfgKey string, bench *workloads.Benchmark, scale int) pipeline.RunOpts {
	r.omu.Lock()
	obs := make([]func(Progress), len(r.observers))
	copy(obs, r.observers)
	every := r.progressEvery
	r.omu.Unlock()
	if len(obs) == 0 {
		return pipeline.RunOpts{ConfigKey: cfgKey}
	}
	id := Progress{
		Machine:   cfg.Name,
		ConfigKey: cfgKey,
		Benchmark: bench.Name,
		Scale:     scale,
	}
	return pipeline.RunOpts{
		ConfigKey:  cfgKey,
		Interval:   every,
		StreamOnly: true,
		Observer: func(iv pipeline.IntervalStats) {
			p := id
			p.Interval = iv
			for _, fn := range obs {
				fn(p)
			}
		},
	}
}

// effectiveScale resolves a non-positive scale to the benchmark default,
// so "scale 0" and an explicit default-scale request share a cache slot.
func effectiveScale(b *workloads.Benchmark, scale int) int {
	if scale <= 0 {
		return b.DefaultScale
	}
	return scale
}

// cellKey normalizes and validates *cfg, and *sc when sc is non-nil,
// and returns the one key the cell goes by in memory and in the store:
// its exact result's when sc is nil, its sampled estimate's under *sc
// otherwise. The key carries the effective scale and the workload's
// source fingerprint, so editing a kernel invalidates its stored
// results instead of serving stale ones.
func cellKey(cfg *pipeline.Config, bench *workloads.Benchmark, scale int, sc *sample.Config) (store.Key, error) {
	*cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return store.Key{}, err
	}
	scale = effectiveScale(bench, scale)
	if sc == nil {
		return store.ExactKey(cfg.Key(), bench.Name, scale, bench.Fingerprint(scale)), nil
	}
	*sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return store.Key{}, err
	}
	return store.SampledKey(cfg.Key(), bench.Name, scale, sc.Key(), bench.Fingerprint(scale)), nil
}

// throughStore is the body every store-backed cache leader shares.
// With a store attached it first reads key through it (a hit counts in
// hits and skips compute); otherwise it computes the value and persists
// it before the leader's waiters wake (a durable write counts in
// writes, when non-nil). Store trouble of any kind reads as a miss or
// costs the write, never the value (see resilience.go).
func throughStore[T any](ctx context.Context, r *Runner, key store.Key, hits, writes *atomic.Uint64, compute func() (*T, error)) (*T, error) {
	if r.store.Load() != nil {
		var cached T
		if r.storeRead(ctx, key, &cached) {
			hits.Add(1)
			return &cached, nil
		}
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	if r.storeWrite(ctx, key, v) && writes != nil {
		writes.Add(1)
	}
	return v, nil
}

// memoCell is what Run and RunSampled share: the value of cell k from
// memory, else from the store, else from compute, which runs as k's
// leader behind a panic-containment boundary named op. A request
// answered without leading counts as a memory hit.
func memoCell[V any](ctx context.Context, r *Runner, c *memo.Cache[store.Key, *V], k store.Key, op string, compute func(context.Context) (*V, error)) (*V, error) {
	v, leader, err := c.Get(ctx, k, protect(r, op, func(ctx context.Context) (*V, error) {
		return throughStore(ctx, r, k, &r.storeHits, nil, func() (*V, error) { return compute(ctx) })
	}))
	if err == nil && !leader {
		r.memHits.Add(1)
	}
	return v, err
}

// Run simulates bench at scale under cfg, returning the memoized result
// if this (config, benchmark, scale) triple has been simulated before —
// from the in-memory cache, or from the persistent store when one is
// attached (see SetStore). The returned Result is shared; callers must
// treat it as read-only.
//
// Canceling ctx aborts the caller's wait and, if this caller is the one
// executing the simulation, the simulation itself — promptly, with an
// error wrapping ctx.Err(). A canceled leader does not poison the
// cache slot: concurrent waiters for the same key take over execution
// under their own contexts.
func (r *Runner) Run(ctx context.Context, cfg pipeline.Config, bench *workloads.Benchmark, scale int) (*pipeline.Result, error) {
	k, err := cellKey(&cfg, bench, scale, nil)
	if err != nil {
		return nil, err
	}
	return memoCell(ctx, r, r.sims, k, "cell "+bench.Name+"/"+cfg.Name, func(ctx context.Context) (*pipeline.Result, error) {
		return r.simulate(ctx, cfg, k, bench)
	})
}

// simulate runs one simulation of cfg, the exact cell k, as a cell, on
// a live emulator.
func (r *Runner) simulate(ctx context.Context, cfg pipeline.Config, k store.Key, bench *workloads.Benchmark) (*pipeline.Result, error) {
	var res *pipeline.Result
	err := r.cell(ctx, "cell", bench, cfg.Name, func(ctx context.Context) error {
		s, err := pipeline.New(cfg, bench.Program(k.Scale))
		if err != nil {
			return err
		}
		res, err = s.Run(ctx, r.runOpts(&cfg, k.ConfigKey, bench, k.Scale))
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Scale = k.Scale
	return res, nil
}

// cell runs one simulation cell — an exact run, or a sampled run's
// planning and windows — under the engine's admission rules: it holds
// a worker-pool slot, counts one simulation, arms the watchdog as op
// "kind bench/machine", passes the exper.cell fault point (keyed
// "bench/machine"), and turns a hard-killed cell's context error into
// its *WatchdogError. run gets the watched context.
func (r *Runner) cell(ctx context.Context, kind string, bench *workloads.Benchmark, machine string, run func(context.Context) error) error {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-r.sem }()
	r.runs.Add(1)
	key := bench.Name + "/" + machine
	wctx, stop := r.watchCell(ctx, kind+" "+key)
	defer stop()
	if err := fault.InjectCtx(wctx, "exper.cell", key); err != nil {
		return watchdogErr(wctx, err)
	}
	return watchdogErr(wctx, run(wctx))
}

// RunSampled estimates bench at scale under cfg by sampled simulation
// (functional fast-forward + periodic detailed windows; see
// internal/sample), memoized by (config key, benchmark, scale, sampling
// regime) — a cache disjoint from the exact-result cache, so sampled
// estimates and exact results never collide. The persistent store, when
// attached, mirrors the same disjointness: sampled entries carry the
// regime key. Cancellation semantics match Run: a canceled leader hands
// the slot to a live waiter.
func (r *Runner) RunSampled(ctx context.Context, cfg pipeline.Config, bench *workloads.Benchmark, scale int, sc sample.Config) (*sample.Result, error) {
	k, err := cellKey(&cfg, bench, scale, &sc)
	if err != nil {
		return nil, err
	}
	return memoCell(ctx, r, r.sampled, k, "sampled cell "+bench.Name+"/"+cfg.Name, func(ctx context.Context) (*sample.Result, error) {
		return r.sampleCell(ctx, cfg, k, bench, sc)
	})
}

// sampleCell runs one sampled estimate of cfg, the sampled cell k, as
// a cell: the window plan (one functional pass that counts the program
// and checkpoints its windows) is config-independent, so it comes from
// planFor — built once per (benchmark, scale, regime) and shared across
// every configuration of a sweep — and only the windows run per
// machine. sc must be normalized.
func (r *Runner) sampleCell(ctx context.Context, cfg pipeline.Config, k store.Key, bench *workloads.Benchmark, sc sample.Config) (*sample.Result, error) {
	pk := store.PlanKey(k.Benchmark, k.Scale, k.Sampling, k.Workload)
	var sr *sample.Result
	err := r.cell(ctx, "sampled cell", bench, cfg.Name, func(ctx context.Context) error {
		plan, err := r.planFor(ctx, bench, pk, sc)
		if err != nil {
			return err
		}
		warmed := plan.Warmed()
		sr, err = sample.RunPlanned(ctx, cfg, bench.Program(k.Scale), sc, plan)
		if plan.Warmed() != warmed {
			// The run recorded shared warming in the plan: charge the
			// plan's new size to the plan budget.
			r.plans.Recharge(pk)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sr.Scale = k.Scale
	return sr, nil
}

// InstCount returns bench's dynamic instruction count at scale from the
// architectural emulator, memoized by (benchmark, scale) and persisted
// in the attached store (KindCount entries), so warm processes skip
// even the counting emulation. It is the only code that reads or
// writes counts: cells never need one. Emulation runs under the same
// worker pool as simulations and honors ctx with the same
// leader-handoff semantics as Run.
func (r *Runner) InstCount(ctx context.Context, bench *workloads.Benchmark, scale int) (uint64, error) {
	scale = effectiveScale(bench, scale)
	k := store.CountKey(bench.Name, scale, bench.Fingerprint(scale))
	n, _, err := r.counts.Get(ctx, k, protect(r, "count "+bench.Name, func(ctx context.Context) (uint64, error) {
		c, err := throughStore(ctx, r, k, &r.storeHits, nil, func() (*store.Count, error) {
			n, err := r.emulate(ctx, bench, scale)
			return &store.Count{Insts: n}, err
		})
		if err != nil {
			return 0, err
		}
		return c.Insts, nil
	}))
	return n, err
}

// emulate runs the architectural emulator to completion under the
// worker pool, checking ctx between instruction chunks.
func (r *Runner) emulate(ctx context.Context, bench *workloads.Benchmark, scale int) (uint64, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	defer func() { <-r.sem }()
	m := emu.New(bench.Program(scale))
	for !m.Halted() {
		m.Run(emuChunk)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return m.InstCount(), nil
}

// Matrix simulates every benchmark under every configuration —
// exactly when sc is nil, by sampled estimation under *sc otherwise —
// and returns results indexed [benchmark][config], parallel to the
// inputs. A sampled cell is its RunSampled estimate rendered as a
// whole-run pipeline.Result (Sampled set, Cycles estimated, event
// counters extrapolated), so formatting over the cells is identical on
// both paths. All cells run concurrently under the worker pool;
// duplicate cells — within this call or against the runner's history —
// are simulated once. done, when non-nil, is called on the cell's
// goroutine as each cell finishes. On error (including cancellation
// and a panic in a cell or in done) Matrix cancels the remaining
// cells, waits for every cell goroutine to exit, and returns the first
// error observed.
func (r *Runner) Matrix(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config, scale int, sc *sample.Config, done func(bi, ci int)) ([][]*pipeline.Result, error) {
	out := make([][]*pipeline.Result, len(benches))
	for i := range out {
		out[i] = make([]*pipeline.Result, len(cfgs))
	}
	err := r.fanOut(ctx, benches, cfgs, scale, sc, nil, func(bi, ci int, res *pipeline.Result) {
		out[bi][ci] = res
		if done != nil {
			done(bi, ci)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut is the engine's one fan-out over a benchmarks × configs
// matrix: every cell that keep admits (keep gets the benchmark-major
// cell index; nil admits all) runs on its own goroutine, and done
// receives each finished cell's result on that goroutine. Each cell is
// a panic-containment boundary, so a panic in done or on the cell's own
// path fails the call with a *fault.PanicError naming the cell instead
// of crashing the process. The first error cancels the remaining
// cells; fanOut returns it only after every cell goroutine has exited.
func (r *Runner) fanOut(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config, scale int, sc *sample.Config, keep func(idx int) bool, done func(bi, ci int, res *pipeline.Result)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for bi, b := range benches {
		for ci := range cfgs {
			if keep != nil && !keep(bi*len(cfgs)+ci) {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := func() (err error) {
					defer fault.CatchPanic(&err, "exper: cell "+b.Name+"/"+cfgs[ci].Name)
					res, err := r.evaluate(ctx, cfgs[ci], b, scale, sc)
					if err == nil {
						done(bi, ci, res)
					}
					return err
				}()
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
			}()
		}
	}
	wg.Wait()
	return firstErr
}

// evaluate runs one cell: Run when sc is nil, otherwise the RunSampled
// estimate under *sc as a whole-run Result.
func (r *Runner) evaluate(ctx context.Context, cfg pipeline.Config, b *workloads.Benchmark, scale int, sc *sample.Config) (*pipeline.Result, error) {
	if sc == nil {
		return r.Run(ctx, cfg, b, scale)
	}
	sr, err := r.RunSampled(ctx, cfg, b, scale, *sc)
	if err != nil {
		return nil, err
	}
	return sr.Estimate(), nil
}
