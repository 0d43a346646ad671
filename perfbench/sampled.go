package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/exper"
	"repro/internal/sample"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/workloads"
)

// sampledScaleMul scales every benchmark to a multiple of its own
// default scale (a sweep spec's scale is absolute, so the workload
// calls Runner.RunSampled per cell instead).
const sampledScaleMul = 8

// sampledSetupReps is how many times sweep-sampled sets up: it
// materializes the scenarios, assembles every program, runs each to
// HALT on the architectural emulator for the reference counts, and
// opens a fresh store and engine.
const sampledSetupReps = 5

// sampledScenarios pins every size knob, so the seed changes program
// contents (data, strides, branch bias, generated code) but not how
// many instructions they run.
const sampledScenarios = `{
  "version": 1,
  "scenarios": [
    {"family": "stream", "name": "pbstream", "params": {"elems": 1024, "stride": [1, 8], "accs": [1, 4]}},
    {"family": "chase", "name": "pbchase", "params": {"nodes": 512, "hops": 4096}},
    {"family": "branchy", "name": "pbbranch", "params": {"elems": 1024, "bias": [20, 80]}},
    {"family": "ilp", "name": "pbilp", "params": {"iters": 1024, "chains": [2, 8]}},
    {"family": "mix", "name": "pbmix", "params": {"iters": 256, "elems": 256}}
  ]
}`

// sweepSampled estimates every built-in and a seeded scenario set with
// Runner.RunSampled per cell against a fresh store: sample plan
// building, emu fast-forward and the window pool do most of the work;
// the trace layer is bypassed and the full timing pass barely runs.
func sweepSampled(ctx context.Context, o opts, t *tally, tr *tracer) (map[string]metric, error) {
	var (
		benches []*workloads.Benchmark
		scales  []int
		cells   []cellRef
		counts  map[string]uint64
	)
	sc := sample.DefaultConfig().Normalize()
	sc.Workers = o.par
	setup := func(tr *tracer) error {
		var spec scenario.Spec
		if err := json.Unmarshal([]byte(sampledScenarios), &spec); err != nil {
			return err
		}
		spec.Seed = o.seed
		if err := spec.Validate(); err != nil {
			return err
		}
		s := tr.begin("scenario.Materialize", "setup", nil)
		gen, err := spec.Materialize()
		s.end()
		if err != nil {
			return err
		}
		benches = append(workloads.All(), gen...)
		scales = make([]int, len(benches))
		for i, b := range benches {
			scales[i] = sampledScaleMul * b.DefaultScale
		}
		assemble(benches, scales, tr)
		counts = instCounts(benches, scales, tr)
		vs, err := parseSpec(&exper.SweepSpec{
			Title:     "sampled",
			Reference: &exper.VariantSpec{Label: "baseline", Baseline: true},
			Variants:  pickVariants(newRNG(o.seed, 2), "default", "optlat4", "mbc32"),
		})
		if err != nil {
			return err
		}
		_, cfgs, err := vs.Resolve()
		if err != nil {
			return err
		}
		st, dir, err := openStore(o, "setup")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		exper.NewRunner(o.par).SetStore(st)
		cells = cells[:0]
		for bi, b := range benches {
			for ci, cfg := range cfgs {
				cells = append(cells, cellRef{idx: len(cells), bi: bi, ci: ci, b: b, cfg: cfg, scale: scales[bi]})
			}
		}
		return nil
	}
	setupS, err := timeSetup(sampledSetupReps, func() error { return setup(nil) }, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweep-sampled: %d benchmarks at %dx default scale, %d cells\n",
		len(benches), sampledScaleMul, len(cells))

	phase := o.seconds
	if tr != nil {
		phase = o.seconds / 3
	}
	untraced := &sweepRounds{}
	err = rounds(phase, 2, func(int) error {
		_, err := sampledRound(ctx, o, sc, cells, counts, t, nil, untraced)
		return err
	})
	if err != nil {
		return nil, err
	}
	e2e := untraced.metrics(setupS)
	if tr == nil {
		return e2e, nil
	}

	m := map[string]metric{}
	gc := readGC()
	tracedSetup, err := timeSetup(sampledSetupReps, func() error { return setup(newTracer()) }, nil)
	if err != nil {
		return nil, err
	}
	if err := setup(tr); err != nil {
		return nil, err
	}
	traced := &sweepRounds{}
	var st exper.Stats
	err = rounds(phase, 1, func(int) error {
		var err error
		st, err = sampledRound(ctx, o, sc, cells, counts, t, tr, traced)
		return err
	})
	if err != nil {
		return nil, err
	}
	overheadMetrics(e2e, traced.metrics(tracedSetup), m)
	m["exper.sims_per_unique_cell"] = metric{float64(st.Simulations) / float64(len(cells)), "ratio"}
	m["exper.mem_hits"] = metric{float64(st.MemHits), "count"}
	m["exper.store_hits"] = metric{float64(st.StoreHits), "count"}
	m["emu.records_per_workload"] = metric{float64(st.TraceRecords) / float64(len(benches)), "ratio"}
	m["sample.plan_builds_per_regime"] = metric{float64(st.PlanBuilds) / float64(len(benches)), "ratio"}
	resilience(st, t, m)
	cellMs := spanMs(tr.byName("exper.RunSampled"))
	m["exper.cell_ms_p50"] = metric{median(cellMs), "ms"}
	m["exper.cell_ms_p99"] = metric{quantile(cellMs, 0.99), "ms"}

	err = rounds(phase, 1, func(int) error {
		return sampledDirectRound(ctx, o, sc, benches, cells, t, tr, m)
	})
	if err != nil {
		return nil, err
	}
	gcMetricsSince(gc, m)
	m["emu.ffwd_ns_per_inst"] = metric{ffwdNsPerInst(tr, counts), "ns"}
	m["asm.assemble_ms"] = metric{sumMs(tr.byName("asm.Program")), "ms"}
	m["scenario.generate_ms"] = metric{sumMs(tr.byName("scenario.Materialize")), "ms"}
	return m, nil
}

// sampledRound runs every cell through Runner.RunSampled on a fresh
// engine and store, from as many workers as the engine runs cells
// (one exper.RunSampled span per cell when traced), then checks the
// estimates.
func sampledRound(ctx context.Context, o opts, sc sample.Config, cells []cellRef, counts map[string]uint64,
	t *tally, tr *tracer, sr *sweepRounds) (exper.Stats, error) {
	st, dir, err := openStore(o, "store")
	if err != nil {
		return exper.Stats{}, err
	}
	defer os.RemoveAll(dir)
	r := exper.NewRunner(o.par)
	r.SetStore(st)
	out := make([]*sample.Result, len(cells))
	errs := make([]error, len(cells))
	runtime.GC()
	h := startHeap()
	c0 := userSeconds()
	eachCell(cells, o.par, func(c cellRef) {
		s := tr.begin("exper.RunSampled", c.id(), nil)
		out[c.idx], errs[c.idx] = r.RunSampled(ctx, c.cfg, c.b, c.scale, sc)
		s.end()
	})
	d := userSeconds() - c0
	peak := h.end()
	if err := errors.Join(errs...); err != nil {
		return exper.Stats{}, err
	}
	builtins := map[string]bool{}
	for _, b := range workloads.All() {
		builtins[b.Name] = true
	}
	var insts uint64
	var builtin, generated []keyedCell
	for i, res := range out {
		c := cells[i]
		insts += res.TotalInsts
		if want := counts[c.b.Name]; res.TotalInsts != want {
			t.fail(1, "%s: estimate covers %d insts, emulator counted %d", c.id(), res.TotalInsts, want)
		}
		// The window worker count is nproc; it does not change the
		// estimate, so it is left out of the digest.
		d := *res
		d.Sampling.Workers = 0
		k := keyedCell{c.b.Name, res.Machine, res.Scale, &d}
		if builtins[c.b.Name] {
			builtin = append(builtin, k)
		} else {
			generated = append(generated, k)
		}
	}
	t.add(len(cells), 0)
	// The built-ins' cells do not depend on the seed; the scenario
	// programs are generated from it.
	setDigest(t, "sweep-sampled", true, cellDigest(builtin))
	setDigest(t, "sweep-sampled.scenarios", false, cellDigest(generated))
	stats := r.Stats()
	resilience(stats, t, nil)
	sr.add(d, insts, peak)
	return stats, nil
}

// sampledDirectRound re-executes every cell through each layer's
// public functions in the engine's order — per workload an emulator
// count and sample.BuildPlan with their store entries, per cell a
// store.Get miss, sample.RunPlanned and store.Put — beside the engine
// call for the same cell. Both estimates must be identical.
func sampledDirectRound(ctx context.Context, o opts, sc sample.Config, benches []*workloads.Benchmark, cells []cellRef,
	t *tally, tr *tracer, m map[string]metric) error {
	est, edir, err := openStore(o, "store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(edir)
	dst, ddir, err := openStore(o, "direct")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ddir)
	r := exper.NewRunner(o.par)
	r.SetStore(est)

	type planned struct {
		once sync.Once
		plan *sample.Plan
		err  error
	}
	plans := map[string]*planned{}
	for _, b := range benches {
		plans[b.Name] = &planned{}
	}
	var (
		mu                   sync.Mutex
		firstErr             error
		overhead             []float64
		planBytes            uint64
		detailed, total      uint64
		estCycles, estRetire uint64
	)
	fail := func(id string, err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", id, err)
		}
		mu.Unlock()
	}
	eachCell(cells, o.par, func(c cellRef) {
		id := c.id()
		root := tr.begin("cell", id, nil)
		defer root.end()
		es := tr.begin("exper.RunSampled", id, root)
		eng, err := r.RunSampled(ctx, c.cfg, c.b, c.scale, sc)
		es.end()
		if err != nil {
			fail(id, err)
			return
		}
		prog := c.b.Program(c.scale)
		wk := workloadKey(c.b, c.scale)
		var direct []*span
		p := plans[c.b.Name]
		p.once.Do(func() {
			s := tr.begin("emu.count", id, root)
			mach := emu.New(prog)
			for !mach.Halted() {
				mach.Run(1 << 20)
			}
			s.end()
			ps := tr.begin("store.Put", id, root)
			p.err = dst.Put(store.CountKey(c.b.Name, c.scale, wk), &store.Count{Insts: mach.InstCount()})
			ps.end()
			if p.err != nil {
				return
			}
			bs := tr.begin("sample.BuildPlan", id, root)
			p.plan, p.err = sample.BuildPlan(ctx, prog, sc, mach.InstCount())
			bs.end()
			if p.err != nil {
				return
			}
			ws := tr.begin("store.Put", id, root)
			p.err = dst.Put(store.PlanKey(c.b.Name, c.scale, sc.Key(), wk), p.plan)
			ws.end()
			direct = append(direct, s, ps, bs, ws)
		})
		if p.err != nil {
			fail(id, p.err)
			return
		}
		key := store.SampledKey(c.cfg.Key(), c.b.Name, c.scale, sc.Key(), wk)
		gs := tr.begin("store.Get", id, root)
		var miss sample.Result
		gerr := dst.Get(key, &miss)
		gs.end()
		if !errors.Is(gerr, store.ErrNotFound) {
			fail(id, fmt.Errorf("store.Get on an empty store: %v", gerr))
			return
		}
		rs := tr.begin("sample.RunPlanned", id, root)
		res, err := sample.RunPlanned(ctx, c.cfg, prog, sc, p.plan)
		rs.end()
		if err != nil {
			fail(id, err)
			return
		}
		res.Scale = c.scale
		us := tr.begin("store.Put", id, root)
		err = dst.Put(key, res)
		us.end()
		if err != nil {
			fail(id, err)
			return
		}
		direct = append(direct, gs, rs, us)
		d := es.dur()
		for _, s := range direct {
			d -= s.dur()
		}
		mu.Lock()
		defer mu.Unlock()
		if !sameResult(eng, res) {
			t.fail(1, "%s: engine and direct sample.RunPlanned estimates differ", id)
		}
		t.add(1, 0)
		overhead = append(overhead, float64(d)/float64(time.Millisecond))
		detailed += res.DetailedInsts()
		total += res.TotalInsts
		est := res.Estimate()
		estCycles += est.Cycles
		estRetire += est.Retired
	})
	if firstErr != nil {
		return firstErr
	}
	for _, p := range plans {
		planBytes += p.plan.Bytes()
	}
	info, err := est.Stat()
	if err != nil {
		return err
	}
	putMs := spanMs(tr.byName("store.Put"))
	getMs := spanMs(tr.byName("store.Get"))
	m["exper.overhead_ms"] = metric{median(overhead), "ms"}
	m["sample.plan_build_ms"] = metric{median(spanMs(tr.byName("sample.BuildPlan"))), "ms"}
	m["sample.plan_mb"] = metric{mib(planBytes), "MiB"}
	m["sample.windows_ms"] = metric{median(spanMs(tr.byName("sample.RunPlanned"))), "ms"}
	m["sample.detailed_share"] = metric{float64(detailed) / float64(total), "ratio"}
	m["pipeline.sim_cycles"] = metric{float64(estCycles), "count"}
	m["pipeline.retired"] = metric{float64(estRetire), "count"}
	m["store.put_ms_p50"] = metric{median(putMs), "ms"}
	m["store.put_ms_p99"] = metric{quantile(putMs, 0.99), "ms"}
	m["store.get_ms_p50"] = metric{median(getMs), "ms"}
	m["store.get_ms_p99"] = metric{quantile(getMs, 0.99), "ms"}
	m["store.bytes_written"] = metric{float64(info.Bytes), "B"}
	return nil
}
