package exper

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// DefaultProgressInterval is the telemetry granularity, in machine
// cycles, used for engine-level observers unless SetProgressInterval
// overrides it.
const DefaultProgressInterval = 100_000

// emuChunk bounds how many instructions the architectural emulator runs
// between context checks in InstCount.
const emuChunk = 1 << 20

// Runner executes simulations with bounded parallelism and memoizes
// results by (config key, benchmark, scale). The zero value is not
// usable; call NewRunner. A Runner is safe for concurrent use.
type Runner struct {
	sem chan struct{}

	// The memo layer (see cache.go): exact results, sampled estimates
	// and instruction counts are retained for the Runner's lifetime;
	// traces and plans (see trace.go) share the byte budget of traceLRU.
	sims     *cache[simKey, *pipeline.Result]
	sampled  *cache[sampleKey, *sample.Result]
	counts   *cache[countKey, uint64]
	traces   *cache[countKey, *emu.Trace]
	plans    *cache[planKey, *sample.Plan]
	traceLRU *lru

	omu           sync.Mutex
	observers     []func(Progress)
	progressEvery uint64

	store atomic.Pointer[store.Store]

	wmu   sync.Mutex
	wkeys map[countKey]string

	memHits         atomic.Uint64
	storeHits       atomic.Uint64
	runs            atomic.Uint64
	traceHits       atomic.Uint64
	traceRecords    atomic.Uint64
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

type simKey struct {
	cfg   string
	bench string
	scale int
}

// sampleKey keys sampled runs: the machine config key plus the sampling
// regime key. Sampled estimates live in their own map, so an exact and
// a sampled result for the same (config, benchmark, scale) can never
// collide — they are different estimators of the same quantity.
type sampleKey struct {
	cfg      string
	bench    string
	scale    int
	sampling string
}

type countKey struct {
	bench string
	scale int
}

// NewRunner builds an engine whose worker pool admits at most
// parallelism concurrent simulations (0 = GOMAXPROCS).
func NewRunner(parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	traceLRU := &lru{budget: DefaultTraceBudget}
	return &Runner{
		sem:           make(chan struct{}, parallelism),
		sims:          newCache[simKey, *pipeline.Result](nil, nil),
		sampled:       newCache[sampleKey, *sample.Result](nil, nil),
		counts:        newCache[countKey, uint64](nil, nil),
		traces:        newCache[countKey](traceLRU, traceBytes),
		plans:         newCache[planKey](traceLRU, planBytes),
		traceLRU:      traceLRU,
		wkeys:         map[countKey]string{},
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

// Stats reports cache effectiveness. Simulations is the number of
// simulations the engine started executing (including any later
// abandoned by cancellation) — the misses that cost real work. MemHits
// counts requests served from the in-process cache, including requests
// that waited on an in-flight simulation of the same key; StoreHits
// counts cache misses answered by the persistent store without
// simulating (always 0 without SetStore). A warm resumed sweep is the
// pattern {Simulations: 0, StoreHits: n}.
//
// The decode-once counters measure the trace/plan layer: TraceRecords
// and PlanBuilds are the architectural passes actually paid
// (recording a dynamic stream; building a sampled window plan), and
// TraceHits/PlanHits the simulations that reused one — a 30-config
// sweep cell at full effectiveness is {TraceRecords: 1, TraceHits:
// 29}. PlanStoreHits counts plan-cache misses answered by the
// persistent store instead of a build, and PlanStoreWrites plans
// persisted after a build (both always 0 without SetStore): a sampled
// sweep sharded across processes is the pattern {PlanBuilds: 1 in one
// process, PlanStoreHits > 0 everywhere else}. With the layer disabled
// (SetTraceBudget(0)) sampled runs build uncached plans that none of
// these counters see. TraceBytes is the bytes the trace and plan
// caches hold right now under their shared budget; it never exceeds
// SetTraceBudget, and is 0 with the layer disabled.
// Stats marshals to JSON with stable snake_case field names, so
// services can expose a snapshot directly (e.g. a /metrics endpoint),
// and String renders the CLI's "-v" stat lines — one formatter for
// every surface that reports engine effectiveness.
type Stats struct {
	Simulations uint64 `json:"simulations"`
	MemHits     uint64 `json:"mem_hits"`
	StoreHits   uint64 `json:"store_hits"`

	TraceRecords    uint64 `json:"trace_records"`
	TraceHits       uint64 `json:"trace_hits"`
	PlanBuilds      uint64 `json:"plan_builds"`
	PlanHits        uint64 `json:"plan_hits"`
	PlanStoreHits   uint64 `json:"plan_store_hits"`
	PlanStoreWrites uint64 `json:"plan_store_writes"`
	TraceBytes      uint64 `json:"trace_bytes"`

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

// String renders the snapshot as the two human-readable stat lines the
// CLI prints under -v (no trailing newline). Keeping the formatter on
// the type means the CLI and the serve /metrics log lines cannot drift
// apart field-by-field.
func (s Stats) String() string {
	return fmt.Sprintf("engine: %d simulations, %d memory hits, %d store hits\n"+
		"engine: decode-once: %d traces recorded, %d replayed; %d plans built, %d reused (%d store hits, %d store writes); %.1f MiB resident\n"+
		"engine: resilience: %d panics recovered, %d store retries, %d store degradations, %d watchdog stalls, %d watchdog kills",
		s.Simulations, s.MemHits, s.StoreHits,
		s.TraceRecords, s.TraceHits, s.PlanBuilds, s.PlanHits,
		s.PlanStoreHits, s.PlanStoreWrites, float64(s.TraceBytes)/(1<<20),
		s.PanicsRecovered, s.StoreRetries, s.StoreDegraded, s.WatchdogStalls, s.WatchdogKills)
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Simulations:     r.runs.Load(),
		MemHits:         r.memHits.Load(),
		StoreHits:       r.storeHits.Load(),
		TraceRecords:    r.traceRecords.Load(),
		TraceHits:       r.traceHits.Load(),
		PlanBuilds:      r.planBuilds.Load(),
		PlanHits:        r.planHits.Load(),
		PlanStoreHits:   r.planStoreHits.Load(),
		PlanStoreWrites: r.planStoreWrites.Load(),
		TraceBytes:      uint64(r.traceLRU.bytes()),
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

// ctxErr reports whether err is the shape a canceled or expired context
// produces — the class of cache-leader failure that a waiter can
// recover from by re-running the work itself.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// workloadKey returns the content hash identifying bench's generated
// source at scale (already effective), memoized per (benchmark, scale).
// Folding it into every store key means editing a kernel invalidates
// its stored results instead of silently serving stale ones — the
// benchmark name alone does not identify the work.
func (r *Runner) workloadKey(bench *workloads.Benchmark, scale int) string {
	k := countKey{bench: bench.Name, scale: scale}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if w, ok := r.wkeys[k]; ok {
		return w
	}
	sum := sha256.Sum256([]byte(bench.Source(scale)))
	w := hex.EncodeToString(sum[:8])
	r.wkeys[k] = w
	return w
}

// storeGet consults the persistent store (when attached and not
// degraded) for key k, decoding into out. Any failure — no store,
// entry missing, entry corrupt, retries exhausted — reads as a miss;
// a hit bumps the StoreHits counter.
func (r *Runner) storeGet(ctx context.Context, k store.Key, out any) bool {
	if !r.storeRead(ctx, k, out) {
		return false
	}
	r.storeHits.Add(1)
	return true
}

// storePut persists a freshly computed value best-effort: a store that
// cannot be written (disk full, permissions) costs durability, not
// correctness, so failures degrade the store (after retries) without
// failing the run. A zero key (no store was attached when the leader
// started) is a no-op.
func (r *Runner) storePut(ctx context.Context, k store.Key, v any) {
	r.storeWrite(ctx, k, v)
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
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scale = effectiveScale(bench, scale)
	k := simKey{cfg: cfg.Key(), bench: bench.Name, scale: scale}

	res, leader, err := r.sims.get(ctx, k, protect(r, "cell "+k.bench+"/"+cfg.Name, func(ctx context.Context) (*pipeline.Result, error) {
		var sk store.Key
		if r.store.Load() != nil {
			sk = store.ExactKey(k.cfg, k.bench, k.scale, r.workloadKey(bench, scale))
			var cached pipeline.Result
			if r.storeGet(ctx, sk, &cached) {
				return &cached, nil
			}
		}
		res, err := r.simulate(ctx, cfg, k.cfg, bench, scale)
		if err != nil {
			return nil, err
		}
		r.storePut(ctx, sk, res)
		return res, nil
	}))
	if err == nil && !leader {
		r.memHits.Add(1)
	}
	return res, err
}

// simulate runs one simulation of cfg (whose Config.Key() is cfgKey)
// under the worker pool. The timing session replays the workload's
// cached trace when the decode-once layer has (or can record) one —
// byte-for-byte identical results, minus the per-config live emulation
// — and falls back to a live emulator when the trace layer is disabled
// or the program exceeds the budget.
func (r *Runner) simulate(ctx context.Context, cfg pipeline.Config, cfgKey string, bench *workloads.Benchmark, scale int) (*pipeline.Result, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.sem }()
	r.runs.Add(1)
	op := "cell " + bench.Name + "/" + cfg.Name
	wctx, stop := r.watchCell(ctx, op)
	defer stop()
	if err := fault.InjectCtx(wctx, "exper.cell", bench.Name+"/"+cfg.Name); err != nil {
		return nil, watchdogErr(wctx, err)
	}
	prog := bench.Program(scale)
	tr, err := r.traceFor(wctx, bench, scale)
	if err != nil {
		return nil, watchdogErr(wctx, err)
	}
	var s *pipeline.Session
	if tr != nil {
		s, err = pipeline.NewReplay(cfg, prog, tr)
	} else {
		s, err = pipeline.New(cfg, prog)
	}
	if err != nil {
		return nil, err
	}
	res, err := s.Run(wctx, r.runOpts(&cfg, cfgKey, bench, scale))
	if err != nil {
		return nil, watchdogErr(wctx, err)
	}
	res.Scale = scale
	return res, nil
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
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	scale = effectiveScale(bench, scale)
	k := sampleKey{cfg: cfg.Key(), bench: bench.Name, scale: scale, sampling: sc.Key()}

	res, leader, err := r.sampled.get(ctx, k, protect(r, "sampled cell "+k.bench+"/"+cfg.Name, func(ctx context.Context) (*sample.Result, error) {
		var sk store.Key
		if r.store.Load() != nil {
			sk = store.SampledKey(k.cfg, k.bench, k.scale, k.sampling, r.workloadKey(bench, scale))
			var cached sample.Result
			if r.storeGet(ctx, sk, &cached) {
				return &cached, nil
			}
		}
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-r.sem }()
		r.runs.Add(1)
		wctx, stop := r.watchCell(ctx, "sampled cell "+bench.Name+"/"+cfg.Name)
		defer stop()
		if err := fault.InjectCtx(wctx, "exper.cell", bench.Name+"/"+cfg.Name); err != nil {
			return nil, watchdogErr(wctx, err)
		}
		// The window plan (one functional pass that counts the program
		// and checkpoints its windows) is config-independent: build it
		// once per (benchmark, scale, regime) and share it across every
		// configuration of a sweep.
		plan, err := r.planFor(wctx, bench, scale, sc)
		if err != nil {
			return nil, watchdogErr(wctx, err)
		}
		sr, err := sample.RunPlanned(wctx, cfg, bench.Program(scale), sc, plan)
		if err != nil {
			return nil, watchdogErr(wctx, err)
		}
		// The plan's pass counted the program: seed the count memo so
		// nothing emulates the workload again just to count it.
		r.seedCount(bench, scale, sr.TotalInsts)
		sr.Scale = scale
		r.storePut(ctx, sk, sr)
		return sr, nil
	}))
	if err == nil && !leader {
		r.memHits.Add(1)
	}
	return res, err
}

// InstCount returns bench's dynamic instruction count at scale from the
// architectural emulator, memoized by (benchmark, scale) and persisted
// in the attached store (KindCount entries), so warm processes skip
// even the counting emulation. A trace recording or a sample plan of
// the workload seeds the memo too, so sampled and exact runs never
// emulate just to count. Emulation runs under the same worker
// pool as simulations and honors ctx with the same leader-handoff
// semantics as Run.
func (r *Runner) InstCount(ctx context.Context, bench *workloads.Benchmark, scale int) (uint64, error) {
	scale = effectiveScale(bench, scale)
	k := countKey{bench: bench.Name, scale: scale}

	n, _, err := r.counts.get(ctx, k, protect(r, "count "+k.bench, func(ctx context.Context) (uint64, error) {
		var sk store.Key
		if r.store.Load() != nil {
			sk = store.CountKey(k.bench, k.scale, r.workloadKey(bench, scale))
			var cached store.Count
			if r.storeGet(ctx, sk, &cached) {
				return cached.Insts, nil
			}
		}
		n, err := r.emulate(ctx, bench, scale)
		if err != nil {
			return 0, err
		}
		r.storePut(ctx, sk, &store.Count{Insts: n})
		return n, nil
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

// Matrix simulates every benchmark under every configuration and
// returns results indexed [benchmark][config], parallel to the inputs.
// All cells run concurrently under the worker pool; duplicate
// (config, benchmark, scale) cells — within this call or against the
// runner's history — are simulated once. On error (including
// cancellation) Matrix cancels the remaining cells, waits for every
// worker goroutine to exit, and returns the first error observed.
func (r *Runner) Matrix(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config, scale int) ([][]*pipeline.Result, error) {
	return r.matrix(ctx, benches, cfgs, func(ctx context.Context, cfg pipeline.Config, b *workloads.Benchmark) (*pipeline.Result, error) {
		return r.Run(ctx, cfg, b, scale)
	})
}

// SampledMatrix is Matrix under sampled simulation: every cell is a
// RunSampled estimate rendered as a whole-run pipeline.Result (Sampled
// set, Cycles estimated, event counters extrapolated), so artifact
// formatting over the cells is identical to the exact path.
func (r *Runner) SampledMatrix(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config, scale int, sc sample.Config) ([][]*pipeline.Result, error) {
	return r.matrix(ctx, benches, cfgs, func(ctx context.Context, cfg pipeline.Config, b *workloads.Benchmark) (*pipeline.Result, error) {
		sr, err := r.RunSampled(ctx, cfg, b, scale, sc)
		if err != nil {
			return nil, err
		}
		return sr.Estimate(), nil
	})
}

// matrix fans every (benchmark, config) cell out over the worker pool.
func (r *Runner) matrix(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config, cell func(context.Context, pipeline.Config, *workloads.Benchmark) (*pipeline.Result, error)) ([][]*pipeline.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([][]*pipeline.Result, len(benches))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for i, b := range benches {
		out[i] = make([]*pipeline.Result, len(cfgs))
		for c := range cfgs {
			wg.Add(1)
			go func(i, c int, b *workloads.Benchmark) {
				defer wg.Done()
				res, err := cell(ctx, cfgs[c], b)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				out[i][c] = res
			}(i, c, b)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
