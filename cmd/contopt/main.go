// Command contopt runs the continuous-optimization reproduction: it
// lists the workloads, simulates individual benchmarks, and regenerates
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	contopt list [-v]                 workload inventory (Table 1)
//	contopt scen <gen|list|validate|figure>
//	                                  declarative scenario specs: seeded
//	                                  workload generation (internal/scenario)
//	contopt run <bench> [flags]       simulate one benchmark, both machines
//	contopt figure6|table3            headline results
//	contopt figure8|figure9|figure10|figure11|figure12
//	                                  machine-model and sensitivity studies
//	contopt ablations                 MBC sweep + policy toggles (beyond paper)
//	contopt sweep <spec.json>         run a user-defined sweep spec
//	contopt sweep -shard i/n|-merge   shard a sweep across processes via
//	                                  the shared store, then merge
//	contopt sample-check [bench ...]  validate the sampled estimator vs exact
//	contopt store <ls|stat|gc|verify [-quarantine]>
//	                                  inspect/maintain the persistent store
//	contopt serve [-addr :8080]       multi-tenant sweep service over HTTP
//	contopt all                       everything above
//
// Failure rehearsal: -faults (or CONTOPT_FAULTS) arms the deterministic
// fault-injection registry (internal/fault) across every layer — store
// I/O, engine cells, sampled windows, served jobs — so operators can
// rehearse disk pressure or wedged cells against a production-shaped
// process: e.g. -faults 'store.write:err=ENOSPC;exper.cell:panic:key=mcf'.
// The engine contains the damage (retry, degrade to memory-only caching,
// recover panics per cell) and reports it via -v and /metrics;
// -watchdog-soft/-watchdog-hard bound individual cell runtimes.
//
// Every experiment runs on one shared exper engine, so a single "all"
// invocation simulates each unique (config, benchmark, scale) triple
// exactly once no matter how many artifacts need it. The sweep
// subcommand loads a declarative JSON spec (benchmark filters, a
// reference machine, labeled config variants) and prints the speedup
// table — arbitrary sweeps without writing Go; see exper.SweepSpec for
// the schema and examples/sweeps/ for samples.
//
// Scenario generation: "contopt scen" turns a versioned, seeded JSON
// scenario spec (examples/scenarios/) into synthetic benchmarks drawn
// from parameterized kernel families, each tagged with a behavior class
// (memory-bound, branchy, ilp-rich, mixed). Generation is deterministic
// — the same spec and seed emit byte-identical assembly — and every
// generated program provably halts within a declared instruction cap.
// Sweep specs reference scenario specs via their "scenarios" field and
// can slice result tables by class with "group_by": "class".
//
// Execution is context-driven end to end: Ctrl-C (SIGINT/SIGTERM)
// aborts the in-flight simulations promptly and reports how far the
// sweep got, and -timeout bounds the whole command the same way.
// -progress streams per-interval telemetry (cycle, retired, interval
// IPC) from every running simulation to stderr.
//
// Sampled simulation: -sample switches run/sweep/artifact commands to
// the sampled estimator — the program fast-forwards through the
// functional emulator and only periodic detailed windows run in the
// cycle-level model (see internal/sample). -sample-period,
// -sample-warmup and -sample-window tune the regime; -window-workers
// bounds how many detailed windows run concurrently (estimates are
// identical for any worker count); "sample-check" reports the
// estimator's error against exact runs and fails when any benchmark's
// speedup error exceeds -tolerance. -progress telemetry covers exact
// simulations only — sampled detailed windows are far shorter than one
// telemetry interval.
//
// Plan sharing: the engine builds each sampled run's window plan once
// per (benchmark, scale, regime) and shares it across every machine
// configuration, so an N-config sampled sweep cell pays for one
// architectural fast-forward instead of N — with byte-identical
// results. Exact cells run live. -v reports plans built, reused and
// resident bytes.
//
// Persistent store: -store DIR (or the CONTOPT_STORE environment
// variable) backs the engine with the on-disk result store
// (internal/store). Finished simulations survive process exit, so a
// rerun of any command — including a sweep or "all" interrupted by
// Ctrl-C — reloads completed cells instead of resimulating them; a
// fully warm rerun performs zero simulations and produces byte-
// identical output. Sampled-run window plans persist too, so even the
// one architectural fast-forward per (benchmark, scale, regime) is
// paid once across all processes that share the store. "contopt store
// -store DIR ls [-plans]|stat|gc|verify" inspects and maintains the
// store; -v distinguishes memory hits, store hits, and misses so warm
// runs are observable.
//
// Sharded sweeps: "contopt sweep -store DIR -shard i/n spec.json" runs
// only the i-th of n deterministic slices of the sweep's cells,
// persisting results through the store — launch n such processes (any
// machines sharing the directory) with no coordination beyond the
// store itself. "contopt sweep -store DIR -merge spec.json" then
// assembles the table from store entries alone, listing any cells no
// shard has finished. A killed shard is rerun with the same flags and
// simulates only what did not survive.
//
// Serving: "contopt serve -addr :8080 -store DIR" exposes the engine as
// a multi-tenant HTTP service (internal/serve). Clients POST sweep
// specs to /v1/sweeps tagged with a tenant and an SLO class (critical,
// sheddable, batch), poll /v1/jobs/{id} or stream Server-Sent Events
// from /v1/jobs/{id}/events, and read engine + queue statistics from
// /metrics. Identical cells across clients dedupe through the same
// engine singleflight and store read-through as the CLI. SIGINT/SIGTERM
// drain the service gracefully for up to -drain before aborting
// in-flight jobs.
//
// Flags:
//
//	-scale N          override benchmark iteration scale (0 = default)
//	-parallel N       concurrent simulations (0 = GOMAXPROCS)
//	-store DIR        persistent result store directory (env CONTOPT_STORE)
//	-shard i/n        sweep: simulate only this process's cell slice (needs -store)
//	-merge            sweep: print the table from the store, no simulation
//	-timeout D        abort the whole command after duration D (0 = none)
//	-progress         stream per-interval simulation progress to stderr
//	-v                verbose: engine cache statistics; instruction counts on list
//	-window-workers N concurrent detailed windows per sampled run (0 = GOMAXPROCS)
//	-sample           estimate via sampled simulation instead of exact runs
//	-sample-period N  instructions between detailed-window starts
//	-sample-warmup N  detailed warmup instructions per window (stats discarded)
//	-sample-window N  measured detailed instructions per window
//	-tolerance PCT    sample-check failure threshold (default 5)
//	-faults SPEC      arm deterministic fault injection (env CONTOPT_FAULTS;
//	                  see internal/fault for the clause grammar)
//	-watchdog-soft D  log a goroutine dump for cells running longer than D
//	-watchdog-hard D  cancel cells running longer than D (0 = off)
//	-addr HOST:PORT   serve: HTTP listen address
//	-drain D          serve: graceful drain timeout on shutdown
//	-max-jobs N       serve: concurrent running jobs (0 = default)
//	-tenant-jobs N    serve: running jobs per tenant (0 = default)
//	-queue-depth N    serve: queued jobs per SLO class (0 = default)
//	-cpuprofile F     write a CPU profile of the command to F
//	-memprofile F     write a heap profile to F when the command finishes
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/emu"
	"repro/internal/exper"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workloads"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "contopt:", err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("contopt", flag.ContinueOnError)
	scale := fs.Int("scale", 0, "benchmark iteration scale (0 = default)")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	storeDir := fs.String("store", os.Getenv("CONTOPT_STORE"), "persistent result store directory (default $CONTOPT_STORE; empty = none)")
	timeout := fs.Duration("timeout", 0, "abort the whole command after this duration (0 = none)")
	progress := fs.Bool("progress", false, "stream per-interval simulation progress to stderr")
	verbose := fs.Bool("v", false, "verbose: engine cache statistics; instruction counts on list")
	windowWorkers := fs.Int("window-workers", 0, "concurrent detailed windows per sampled run (0 = GOMAXPROCS)")
	shard := fs.String("shard", "", "sweep: simulate only this process's share of the cells, in the form i/n (requires -store)")
	merge := fs.Bool("merge", false, "sweep: assemble the table from the store without simulating (requires -store)")
	sampled := fs.Bool("sample", false, "estimate via sampled simulation instead of exact runs")
	samplePeriod := fs.Uint64("sample-period", 0, "instructions between detailed-window starts (0 = default)")
	sampleWarmup := fs.Uint64("sample-warmup", 0, "detailed warmup instructions per window, stats discarded (0 = default)")
	sampleWindow := fs.Uint64("sample-window", 0, "measured detailed instructions per window (0 = default)")
	tolerance := fs.Float64("tolerance", 5, "sample-check failure threshold, percent")
	checkIPC := fs.Bool("check-ipc", false, "sample-check: also gate per-machine IPC errors, not just speedup")
	faults := fs.String("faults", os.Getenv("CONTOPT_FAULTS"), "fault-injection spec for failure rehearsal (default $CONTOPT_FAULTS; empty = none)")
	watchdogSoft := fs.Duration("watchdog-soft", 0, "per-cell soft deadline: log a goroutine dump past this (0 = off)")
	watchdogHard := fs.Duration("watchdog-hard", 0, "per-cell hard deadline: cancel the cell past this (0 = off)")
	addr := fs.String("addr", ":8080", "serve: HTTP listen address")
	drain := fs.Duration("drain", 30*time.Second, "serve: graceful drain timeout on shutdown")
	maxJobs := fs.Int("max-jobs", 0, "serve: concurrent running jobs (0 = default)")
	tenantJobs := fs.Int("tenant-jobs", 0, "serve: running jobs per tenant (0 = default)")
	queueDepth := fs.Int("queue-depth", 0, "serve: queued jobs per SLO class (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file when the command finishes")
	if len(args) == 0 {
		usage()
		return nil
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Fault injection arms the process registry before anything opens
	// the store or simulates, so every fault point in this invocation —
	// store I/O, engine cells, sampled windows, served jobs — sees the
	// clauses. Off (zero-cost) when the spec is empty.
	if *faults != "" {
		if err := fault.Enable(*faults); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "contopt: fault injection armed: %s\n", *faults)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Profiling: every command (run, sweep, artifacts, ...) can be
	// profiled directly, so performance work needs no ad-hoc builds.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "contopt: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "contopt: memprofile:", err)
			}
		}()
	}

	// The sampling regime: nil means exact simulation. sample-check
	// always needs one (it is the point of the command); elsewhere the
	// tuning flags imply -sample.
	var sampleCfg *sample.Config
	if *sampled || cmd == "sample-check" ||
		*samplePeriod != 0 || *sampleWarmup != 0 || *sampleWindow != 0 {
		sc := sample.DefaultConfig()
		if *samplePeriod != 0 {
			sc.Period = *samplePeriod
		}
		if *sampleWarmup != 0 {
			sc.Warmup = *sampleWarmup
		}
		if *sampleWindow != 0 {
			sc.Window = *sampleWindow
		}
		sc.Workers = *windowWorkers
		if err := sc.Validate(); err != nil {
			return err
		}
		sampleCfg = &sc
	}

	// The store subcommand maintains the store directly; it does not
	// simulate, so it bypasses the engine setup below.
	if cmd == "store" {
		return storeCmd(os.Stdout, *storeDir, fs.Args())
	}

	// One engine per process: every artifact below shares its memoized
	// results, so e.g. "all" simulates the 22-benchmark baseline once.
	// With -store the cache is also layered over the persistent store:
	// results computed by earlier invocations are read back instead of
	// resimulated, and everything computed here is persisted for later
	// ones.
	engine := exper.NewRunner(*parallel)
	// Resilience diagnostics (store degradation, recovered panics,
	// watchdog events) go to stderr: rare, and exactly what an operator
	// needs when a run misbehaves.
	engine.SetLogf(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if *watchdogSoft > 0 || *watchdogHard > 0 {
		engine.SetWatchdog(*watchdogSoft, *watchdogHard)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		engine.SetStore(st)
	}
	if *progress {
		engine.Observe(func(p exper.Progress) {
			fmt.Fprintf(os.Stderr, "progress: %s/%s@%d cycle=%d retired=%d ipc=%.3f\n",
				p.Benchmark, p.Machine, p.Scale, p.Interval.EndCycle(), p.Interval.Retired, p.Interval.IPC())
		})
	}
	if *verbose {
		// One formatter for CLI -v and the server's /metrics: both render
		// the same exper.Stats snapshot.
		defer func() { fmt.Fprintln(os.Stderr, engine.Stats()) }()
	}
	opts := harness.Options{Scale: *scale, Engine: engine, Sample: sampleCfg}
	out := os.Stdout

	experiments := map[string]func(context.Context) error{
		"table1":   func(ctx context.Context) error { return opts.Table1(ctx, out) },
		"figure6":  func(ctx context.Context) error { return opts.Figure6(ctx, out) },
		"table3":   func(ctx context.Context) error { return opts.Table3(ctx, out) },
		"figure8":  func(ctx context.Context) error { return opts.Figure8(ctx, out) },
		"figure9":  func(ctx context.Context) error { return opts.Figure9(ctx, out) },
		"figure10": func(ctx context.Context) error { return opts.Figure10(ctx, out) },
		"figure11": func(ctx context.Context) error { return opts.Figure11(ctx, out) },
		"figure12": func(ctx context.Context) error { return opts.Figure12(ctx, out) },
		"ablations": func(ctx context.Context) error {
			if err := opts.MBCSweep(ctx, out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			return opts.PolicySweep(ctx, out)
		},
		"discrete": func(ctx context.Context) error { return opts.DiscreteSweep(ctx, out) },
		"dead":     func(ctx context.Context) error { return opts.DeadValues(ctx, out) },
	}

	switch cmd {
	case "list":
		return list(ctx, out, engine, *verbose, *scale)
	case "scen":
		return scenCmd(ctx, out, opts, fs.Args())
	case "run":
		rest := fs.Args()
		if len(rest) != 1 {
			return fmt.Errorf("usage: contopt run <benchmark>")
		}
		if sampleCfg != nil {
			return runOneSampled(ctx, out, engine, rest[0], *scale, *sampleCfg)
		}
		return runOne(ctx, out, engine, rest[0], *scale)
	case "sample-check":
		return opts.SampleCheck(ctx, out, fs.Args(), *tolerance, *checkIPC)
	case "sweep":
		rest := fs.Args()
		if len(rest) != 1 {
			return fmt.Errorf("usage: contopt sweep <spec.json>")
		}
		spec, err := exper.LoadSpec(rest[0])
		if err != nil {
			return err
		}
		if *scale > 0 {
			spec.Scale = *scale
		}
		switch {
		case *merge && *shard != "":
			return fmt.Errorf("sweep: -shard runs cells and -merge only reads the store; pass one or the other")
		case *merge:
			sr, missing, err := engine.SweepMerge(spec, sampleCfg)
			if err != nil {
				return err
			}
			if len(missing) > 0 {
				for _, m := range missing {
					fmt.Fprintln(os.Stderr, "missing:", m)
				}
				return fmt.Errorf("sweep: %d of the sweep's cells are not in the store yet; finish the shards and re-run -merge", len(missing))
			}
			return sr.WriteTable(out)
		case *shard != "":
			sh, err := exper.ParseShard(*shard)
			if err != nil {
				return err
			}
			rep, err := engine.SweepShard(ctx, spec, sh, sampleCfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "shard %s: simulated and persisted %d of %d cells\n",
				rep.Shard, rep.OwnedCells, rep.TotalCells)
			return nil
		}
		var sr *exper.SweepResult
		if sampleCfg != nil {
			sr, err = engine.SweepSampled(ctx, spec, *sampleCfg)
		} else {
			sr, err = engine.Sweep(ctx, spec)
		}
		if err != nil {
			return err
		}
		return sr.WriteTable(out)
	case "serve":
		srv := serve.New(engine, serve.Config{
			MaxJobs:    *maxJobs,
			TenantJobs: *tenantJobs,
			QueueDepth: *queueDepth,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		return srv.ListenAndServe(ctx, *addr, *drain)
	case "verify":
		return verify(ctx, out, *scale)
	case "all":
		names := []string{"table1", "figure6", "table3", "figure8",
			"figure9", "figure10", "figure11", "figure12",
			"ablations", "discrete", "dead"}
		for i, name := range names {
			start := time.Now()
			if err := experiments[name](ctx); err != nil {
				if ctx.Err() != nil {
					fmt.Fprintf(os.Stderr, "contopt: interrupted during %s; %d/%d artifacts completed (%v)\n",
						name, i, len(names), names[:i])
				}
				return err
			}
			fmt.Fprintf(out, "[%s in %.1fs]\n\n", name, time.Since(start).Seconds())
		}
		return nil
	default:
		if fn, ok := experiments[cmd]; ok {
			return fn(ctx)
		}
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// list prints the workload inventory with each benchmark's behavior
// class (built-ins plus any generated scenarios registered this
// process). With verbose set it also computes each benchmark's dynamic
// instruction count at the effective scale via the emulator (memoized
// in the engine) — the number to pick sane sampling windows against.
func list(ctx context.Context, out *os.File, engine *exper.Runner, verbose bool, scale int) error {
	benches := append(workloads.All(), workloads.GeneratedBenchmarks()...)
	if !verbose {
		for _, b := range benches {
			fmt.Fprintf(out, "%-11s %-7s %-12s %s\n", b.Suite, b.Name, b.Class, b.Notes)
		}
		return nil
	}
	type row struct {
		b   *workloads.Benchmark
		n   uint64
		err error
	}
	rows := make([]row, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		rows[i].b = b
		wg.Add(1)
		go func(i int, b *workloads.Benchmark) {
			defer wg.Done()
			rows[i].n, rows[i].err = engine.InstCount(ctx, b, scale)
		}(i, b)
	}
	wg.Wait()
	for _, r := range rows {
		if r.err != nil {
			return r.err
		}
		fmt.Fprintf(out, "%-11s %-7s %-12s %10d insts  %s\n", r.b.Suite, r.b.Name, r.b.Class, r.n, r.b.Notes)
	}
	return nil
}

// runOneSampled estimates one benchmark on both machines by sampled
// simulation and reports the estimates with their confidence intervals.
func runOneSampled(ctx context.Context, out *os.File, engine *exper.Runner, name string, scale int, sc sample.Config) error {
	b, ok := workloads.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (try 'contopt list')", name)
	}
	base, err := engine.RunSampled(ctx, pipeline.DefaultConfig().Baseline(), b, scale, sc)
	if err != nil {
		return err
	}
	opt, err := engine.RunSampled(ctx, pipeline.DefaultConfig(), b, scale, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s (%s): %s [sampled: period %d, warmup %d, window %d]\n",
		b.Name, b.Suite, b.Notes, opt.Period, opt.Sampling.Warmup, opt.Sampling.Window)
	show := func(label string, r *sample.Result) {
		fmt.Fprintf(out, "  %s %d insts, ~%d cycles (est), IPC %.3f ±%.1f%% (95%% CI, %d windows, %.1f%% detailed)\n",
			label, r.TotalInsts, r.EstCycles, r.EstIPC(), 100*r.RelCI, len(r.Windows), 100*r.Coverage())
	}
	show("baseline: ", base)
	show("optimized:", opt)
	fmt.Fprintf(out, "  speedup: %.3f (estimated)\n", opt.SpeedupOver(base))
	return nil
}

// runOne simulates one benchmark on both machines through the shared
// engine, so -progress and -v report it like any other experiment.
func runOne(ctx context.Context, out *os.File, engine *exper.Runner, name string, scale int) error {
	b, ok := workloads.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (try 'contopt list')", name)
	}
	base, err := engine.Run(ctx, pipeline.DefaultConfig().Baseline(), b, scale)
	if err != nil {
		return err
	}
	opt, err := engine.Run(ctx, pipeline.DefaultConfig(), b, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s (%s): %s\n", b.Name, b.Suite, b.Notes)
	fmt.Fprintf(out, "  baseline:  %d insts, %d cycles, IPC %.3f\n", base.Retired, base.Cycles, base.IPC())
	fmt.Fprintf(out, "  optimized: %d insts, %d cycles, IPC %.3f\n", opt.Retired, opt.Cycles, opt.IPC())
	fmt.Fprintf(out, "  speedup: %.3f\n", opt.SpeedupOver(base))
	fmt.Fprintf(out, "  exec early %.1f%%  mispred recovered %.1f%%  addr gen %.1f%%  loads removed %.1f%%\n",
		opt.PctEarlyExecuted(), opt.PctMispredRecovered(), opt.PctAddrGen(), opt.PctLoadsRemoved())
	fmt.Fprintf(out, "  reassociated %d  moves collapsed %d  strength reduced %d  inferences %d  feedback %d\n",
		opt.Opt.Reassociated, opt.Opt.MovesCollapsed, opt.Opt.StrengthReduced,
		opt.Opt.Inferences, opt.Opt.FeedbackApplied)
	budget := pipeline.DefaultConfig().Opt.Budget()
	fmt.Fprintf(out, "  optimizer hardware: %d bytes of table storage (%d CP/RA + %d MBC entries)\n",
		budget.TotalBytes(), budget.CPRAEntries, budget.MBCEntries)
	return nil
}

// storeCmd implements "contopt store -store DIR {ls|stat|gc|verify}":
// index, summarize, garbage-collect, and integrity-check the
// persistent result store without running any simulation.
func storeCmd(out *os.File, dir string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: contopt store -store DIR {ls [-plans]|stat|gc|verify}")
	}
	if dir == "" {
		return fmt.Errorf("store: no directory; pass -store DIR or set CONTOPT_STORE")
	}
	if args[0] != "ls" && args[0] != "verify" && len(args) != 1 {
		return fmt.Errorf("usage: contopt store -store DIR %s", args[0])
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	switch args[0] {
	case "ls":
		lsFlags := flag.NewFlagSet("store ls", flag.ContinueOnError)
		plansOnly := lsFlags.Bool("plans", false, "list only sampled-run plan entries")
		if err := lsFlags.Parse(args[1:]); err != nil {
			return err
		}
		entries, err := st.List()
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "kind\tbenchmark\tscale\tconfig\tregime\tbytes\tstatus")
		for _, e := range entries {
			if e.Err != nil {
				if *plansOnly {
					continue // a corrupt entry's kind is unrecoverable
				}
				fmt.Fprintf(tw, "?\t?\t?\t?\t?\t%d\tcorrupt: %v\n", e.Size, e.Err)
				continue
			}
			if *plansOnly && e.Key.Kind != store.KindPlan {
				continue
			}
			k := e.Key
			cfg, regime := k.ConfigKey, k.Sampling
			if cfg == "" {
				cfg = "-"
			}
			if regime == "" {
				regime = "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%d\tok\n", k.Kind, k.Benchmark, k.Scale, cfg, regime, e.Size)
		}
		return tw.Flush()
	case "stat":
		info, err := st.Stat()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d entries (%d exact, %d sampled, %d counts, %d plans), %d bytes in %d segments\n",
			dir, info.Entries, info.ByKind[store.KindExact], info.ByKind[store.KindSampled],
			info.ByKind[store.KindCount], info.ByKind[store.KindPlan], info.Bytes, info.Segments)
		if info.Corrupt > 0 || info.Superseded > 0 || info.TornTails > 0 || info.Legacy > 0 {
			fmt.Fprintf(out, "debris: %d corrupt entries, %d superseded records, %d torn tails, %d legacy entry files (run 'contopt store gc')\n",
				info.Corrupt, info.Superseded, info.TornTails, info.Legacy)
		}
		return nil
	case "gc":
		rep, err := st.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "removed %d corrupt entries, %d superseded records, %d torn tails and %d legacy entry files (%d bytes); %d intact entries kept\n",
			rep.RemovedCorrupt, rep.RemovedSuperseded, rep.RemovedTorn, rep.RemovedLegacy, rep.ReclaimedBytes, rep.RemainingIntact)
		return nil
	case "verify":
		vFlags := flag.NewFlagSet("store verify", flag.ContinueOnError)
		quarantine := vFlags.Bool("quarantine", false, "move proven-corrupt entries aside to DIR/quarantine instead of failing")
		if err := vFlags.Parse(args[1:]); err != nil {
			return err
		}
		entries, err := st.List()
		if err != nil {
			return err
		}
		corrupt := 0
		for _, e := range entries {
			if e.Err != nil {
				corrupt++
				fmt.Fprintf(out, "corrupt: %v\n", e.Err) // the error names the segment and offset
			}
		}
		fmt.Fprintf(out, "%d entries verified, %d corrupt\n", len(entries)-corrupt, corrupt)
		if corrupt == 0 {
			return nil
		}
		if !*quarantine {
			return fmt.Errorf("store: %d corrupt entries (re-run with -quarantine to move them aside, or 'contopt store gc' to delete them)", corrupt)
		}
		moved, err := st.Quarantine()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "quarantined %d proven-corrupt entries to %s\n", moved, filepath.Join(dir, "quarantine"))
		// Transient read failures are not proven corruption; Quarantine
		// deliberately leaves them, and verify still fails on them.
		if moved < corrupt {
			return fmt.Errorf("store: %d unreadable entries left in place (not proven corrupt; retry verify)", corrupt-moved)
		}
		return nil
	default:
		return fmt.Errorf("store: unknown action %q (want ls [-plans], stat, gc or verify)", args[0])
	}
}

// verify runs every benchmark through the emulator and both machine
// models, checking that each retires exactly the oracle instruction
// count with no leaked physical registers. The optimizer's internal
// value checking panics on any unsound transformation, so a clean pass
// certifies the build end to end without the test suite.
func verify(ctx context.Context, out *os.File, scale int) error {
	if scale == 0 {
		scale = 1
	}
	configs := []pipeline.Config{
		pipeline.DefaultConfig().Baseline(),
		pipeline.DefaultConfig(),
	}
	for _, b := range workloads.All() {
		prog := b.Program(scale)
		m := emu.New(prog)
		m.Run(0)
		want := m.InstCount()
		for _, cfg := range configs {
			s, err := pipeline.New(cfg, prog)
			if err != nil {
				return err
			}
			res, err := s.Run(ctx, pipeline.RunOpts{})
			if err != nil {
				return err
			}
			if res.Retired != want {
				return fmt.Errorf("%s/%s: retired %d, oracle executed %d",
					b.Name, cfg.Name, res.Retired, want)
			}
			if live := s.LiveRegs(); live != 0 {
				return fmt.Errorf("%s/%s: %d physical registers leaked", b.Name, cfg.Name, live)
			}
		}
		fmt.Fprintf(out, "ok  %-7s %8d instructions, both machines agree with the oracle\n", b.Name, want)
	}
	fmt.Fprintln(out, "all 22 benchmarks verified")
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: contopt <command> [flags]

commands:
  list        workload inventory with behavior classes (-v adds dynamic
              instruction counts)
  scen <gen|list|validate|figure>
              declarative scenario specs: list kernel families, validate
              a spec, emit its generated assembly (deterministic per
              seed), or report speedups sliced by behavior class
  run <name>  simulate one benchmark on both machines
  table1      workload instruction counts
  figure6     per-benchmark speedups
  table3      optimizer effect percentages
  figure8     fetch-/execution-bound machine models
  figure9     value feedback vs full optimization
  figure10    dependence-depth sensitivity
  figure11    optimizer latency sensitivity
  figure12    feedback delay sensitivity
  ablations   MBC capacity + policy sweeps (beyond the paper)
  sweep <f>   run a user-defined JSON sweep spec (see examples/sweeps/);
              -shard i/n simulates one process's slice through -store,
              -merge prints the finished table from the store
  discrete    continuous vs. offline-style (trace-flushed) optimization
  dead        dead-value fraction, baseline vs. optimized
  verify      check both machines against the oracle on all benchmarks
  sample-check [bench ...]
              validate the sampled estimator against exact runs
  store <ls [-plans]|stat|gc|verify [-quarantine]>
              index, summarize, clean, or integrity-check the -store DIR
              (verify -quarantine moves proven-corrupt entries aside)
  serve       multi-tenant sweep service over HTTP (SLO classes, SSE,
              cross-client dedup; see -addr, -drain, -max-jobs,
              -tenant-jobs, -queue-depth)
  all         run every experiment (shared result cache across artifacts)

flags: -scale N, -parallel N, -store DIR, -timeout D, -progress, -v,
       -shard i/n and -merge (sweep), -window-workers N,
       -sample, -sample-period N, -sample-warmup N, -sample-window N,
       -tolerance PCT and -check-ipc (sample-check),
       -faults SPEC, -watchdog-soft D, -watchdog-hard D,
       -addr, -drain, -max-jobs, -tenant-jobs, -queue-depth (serve),
       -cpuprofile F, -memprofile F (any command)

-faults SPEC (or CONTOPT_FAULTS) arms deterministic fault injection for
failure rehearsal: clauses like 'store.write:err=ENOSPC:nth=3' or
'exper.cell:panic:key=mcf' fail named points in the store, engine,
sampler and server (see internal/fault). The process must survive with
the damage contained — degraded caching, one failed cell — and reports
it under -v and /metrics.

-sample applies to run, sweep and every artifact command: simulation
fast-forwards through the functional emulator and only short periodic
windows run in the detailed model, trading a bounded, reported error
for a large speedup at scale.

-store DIR (or CONTOPT_STORE) persists every finished simulation to a
content-addressed on-disk store shared across invocations: interrupted
sweeps resume where they stopped, and a fully warm rerun performs zero
simulations (verify with -v: "0 simulations, ... store hits").

Shard a sweep across processes with "sweep -store DIR -shard i/n f":
each of the n processes simulates a disjoint slice of the cells and
coordinates with the others only through the shared store (sampled
window plans included — one fast-forward per workload and regime across
all processes). When the shards are done, "sweep -store DIR -merge f"
prints the table from the store without simulating anything.`)
}
