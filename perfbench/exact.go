package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/workloads"
)

// exactBenches covers all four behaviour classes at default scale.
// Their traces total about 115 MiB, under half of the engine's 256 MiB
// DefaultTraceBudget, so each is recorded exactly once per sweep.
var exactBenches = []string{
	"bzp", "g721e", // branchy
	"gap", "eqk", // memory-bound
	"art", "msa", // ilp-rich
	"twf", "g721d", // mixed
}

// exactSetupReps is how many times sweep-exact sets up: it assembles
// the programs, runs each to HALT on the architectural emulator for
// the reference instruction counts the output check uses, resolves
// the spec and opens a fresh store and engine.
const exactSetupReps = 30

func exactSpec(seed uint64) *exper.SweepSpec {
	return &exper.SweepSpec{
		Title:      "sensitivity knobs (speedup over baseline)",
		Benchmarks: exactBenches,
		Reference:  &exper.VariantSpec{Label: "baseline", Baseline: true},
		Variants: pickVariants(newRNG(seed, 1), "default", "depth1", "depth3", "depth3mem1",
			"optlat0", "optlat4", "fbdelay0", "fbdelay5", "fbdelay10"),
		PerBenchmark: true,
	}
}

// sweepExact is one exper.Runner.Sweep call per round against a fresh
// store: the pipeline timing pass and emu trace record/replay do most
// of the work, store write-behind a little.
func sweepExact(ctx context.Context, o opts, t *tally, tr *tracer) (map[string]metric, error) {
	var (
		spec    *exper.SweepSpec
		benches []*workloads.Benchmark
		cells   []cellRef
		counts  map[string]uint64
	)
	setup := func(tr *tracer) error {
		var err error
		if spec, err = parseSpec(exactSpec(o.seed)); err != nil {
			return err
		}
		bs, cfgs, err := spec.Resolve()
		if err != nil {
			return err
		}
		benches = bs
		assemble(benches, defaultScales(benches), tr)
		counts = instCounts(benches, defaultScales(benches), tr)
		st, dir, err := openStore(o, "setup")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		exper.NewRunner(o.par).SetStore(st)
		cells = cells[:0]
		for bi, b := range benches {
			for ci, cfg := range cfgs {
				cells = append(cells, cellRef{idx: len(cells), bi: bi, ci: ci, b: b, cfg: cfg, scale: b.DefaultScale})
			}
		}
		return nil
	}
	setupS, err := timeSetup(exactSetupReps, func() error { return setup(nil) }, nil)
	if err != nil {
		return nil, err
	}
	var insts uint64
	for _, n := range counts {
		insts += n
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweep-exact: %d cells, trace working set %.1f MiB of the %d MiB budget\n",
		len(cells), mib(insts*emu.DynInstBytes), exper.DefaultTraceBudget>>20)

	phase := o.seconds
	if tr != nil {
		phase = o.seconds / 3
	}
	untraced := &sweepRounds{}
	err = rounds(phase, 2, func(int) error {
		return exactRound(ctx, o, spec, counts, t, untraced)
	})
	if err != nil {
		return nil, err
	}
	e2e := untraced.metrics(setupS)
	if tr == nil {
		return e2e, nil
	}

	// Traced run: the engine's per-cell calls under spans, then the
	// same cells through each layer's public functions directly.
	m := map[string]metric{}
	gc := readGC()
	tracedSetup, err := timeSetup(exactSetupReps, func() error { return setup(newTracer()) }, nil)
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
		st, err = exactEngineRound(ctx, o, spec, benches, cells, counts, t, tr, traced)
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
	resilience(st, t, m)
	cellMs := spanMs(tr.byName("exper.Run"))
	m["exper.cell_ms_p50"] = metric{median(cellMs), "ms"}
	m["exper.cell_ms_p99"] = metric{quantile(cellMs, 0.99), "ms"}

	err = rounds(phase, 1, func(int) error {
		return exactDirectRound(ctx, o, spec, benches, cells, t, tr, m)
	})
	if err != nil {
		return nil, err
	}
	gcMetricsSince(gc, m)
	m["emu.ffwd_ns_per_inst"] = metric{ffwdNsPerInst(tr, counts), "ns"}
	m["asm.assemble_ms"] = metric{sumMs(tr.byName("asm.Program")), "ms"}
	return m, nil
}

func defaultScales(benches []*workloads.Benchmark) []int {
	out := make([]int, len(benches))
	for i, b := range benches {
		out[i] = b.DefaultScale
	}
	return out
}

func sumMs(ss []*span) float64 {
	var s float64
	for _, x := range spanMs(ss) {
		s += x
	}
	return s
}

// exactRound is one untraced sweep: a fresh engine and store, one
// Sweep call, then the output checks.
func exactRound(ctx context.Context, o opts, spec *exper.SweepSpec, counts map[string]uint64, t *tally, sr *sweepRounds) error {
	st, dir, err := openStore(o, "store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := exper.NewRunner(o.par)
	r.SetStore(st)
	runtime.GC()
	h := startHeap()
	c0 := userSeconds()
	res, err := r.Sweep(ctx, spec)
	d := userSeconds() - c0
	peak := h.end()
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	insts := checkExact(res, counts, t)
	resilience(r.Stats(), t, nil)
	sr.add(d, insts, peak)
	return nil
}

// checkExact checks a finished sweep: every cell retired exactly the
// emulator's instruction count, and the digest of every cell's
// simulated statistics matches across rounds (and the committed one
// for the default seed). It returns the retired instructions.
func checkExact(res *exper.SweepResult, counts map[string]uint64, t *tally) uint64 {
	var insts uint64
	var cells []keyedCell
	for bi, row := range res.Cells {
		for _, c := range row {
			insts += c.Retired
			if want := counts[res.Benches[bi].Name]; c.Retired != want || c.Truncated != "" {
				t.fail(1, "%s/%s retired %d, emulator counted %d", c.Program, c.Machine, c.Retired, want)
			}
			cells = append(cells, keyedCell{res.Benches[bi].Name, c.Machine, c.Scale, c})
		}
	}
	t.add(len(cells), 0)
	setDigest(t, "sweep-exact", true, cellDigest(cells))
	return insts
}

// exactEngineRound runs the sweep's cells through Runner.Run from as
// many workers as the engine runs cells, so a span measures the cell
// and not the wait for a pool slot, with one exper.Run span per cell:
// the engine under tracing.
func exactEngineRound(ctx context.Context, o opts, spec *exper.SweepSpec, benches []*workloads.Benchmark, cells []cellRef,
	counts map[string]uint64, t *tally, tr *tracer, sr *sweepRounds) (exper.Stats, error) {
	st, dir, err := openStore(o, "store")
	if err != nil {
		return exper.Stats{}, err
	}
	defer os.RemoveAll(dir)
	r := exper.NewRunner(o.par)
	r.SetStore(st)
	res := &exper.SweepResult{Spec: spec, Benches: benches, Cells: make([][]*pipeline.Result, len(benches))}
	for i := range res.Cells {
		res.Cells[i] = make([]*pipeline.Result, len(cells)/len(benches))
	}
	var mu sync.Mutex
	var firstErr error
	runtime.GC()
	h := startHeap()
	c0 := userSeconds()
	eachCell(cells, o.par, func(c cellRef) {
		s := tr.begin("exper.Run", c.id(), nil)
		out, err := r.Run(ctx, c.cfg, c.b, c.scale)
		s.end()
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res.Cells[c.bi][c.ci] = out
	})
	d := userSeconds() - c0
	peak := h.end()
	if firstErr != nil {
		return exper.Stats{}, firstErr
	}
	insts := checkExact(res, counts, t)
	sr.add(d, insts, peak)
	return r.Stats(), nil
}

// exactDirectRound re-executes every cell through each layer's public
// functions in the engine's order — emu.Record once per workload, a
// store.Get miss, pipeline.NewReplay + Session.Run, store.Put — next
// to the engine call for the same cell, and times the live
// pipeline.New path on the same cell. All results must be identical.
func exactDirectRound(ctx context.Context, o opts, spec *exper.SweepSpec, benches []*workloads.Benchmark, cells []cellRef,
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

	type recorded struct {
		once sync.Once
		tr   *emu.Trace
		err  error
		cell string // the cell whose worker recorded it
	}
	traces := map[string]*recorded{}
	for _, b := range benches {
		traces[b.Name] = &recorded{}
	}
	res := &exper.SweepResult{Spec: spec, Benches: benches, Cells: make([][]*pipeline.Result, len(benches))}
	for i := range res.Cells {
		res.Cells[i] = make([]*pipeline.Result, len(cells)/len(benches))
	}
	var (
		mu                  sync.Mutex
		firstErr            error
		overhead            []float64
		replayNs, liveNs    float64
		cycles, retired     uint64
		traceBytes          uint64
		engineSpans, direct = map[string]*span{}, map[string][]*span{}
	)
	eachCell(cells, o.par, func(c cellRef) {
		id := c.id()
		root := tr.begin("cell", id, nil)
		defer root.end()
		es := tr.begin("exper.Run", id, root)
		eng, err := r.Run(ctx, c.cfg, c.b, c.scale)
		es.end()
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", id, err)
			}
			mu.Unlock()
		}
		if err != nil {
			fail(err)
			return
		}
		prog := c.b.Program(c.scale)
		rec := traces[c.b.Name]
		var spans []*span
		rec.once.Do(func() {
			s := tr.begin("emu.Record", id, root)
			rec.tr, rec.err = emu.Record(ctx, prog, 0)
			s.end()
			rec.cell = id
			spans = append(spans, s)
		})
		if rec.err != nil {
			fail(rec.err)
			return
		}
		key := store.ExactKey(c.cfg.Key(), c.b.Name, c.scale, workloadKey(c.b, c.scale))
		gs := tr.begin("store.Get", id, root)
		var miss pipeline.Result
		gerr := dst.Get(key, &miss)
		gs.end()
		if !errors.Is(gerr, store.ErrNotFound) {
			fail(fmt.Errorf("store.Get on an empty store: %v", gerr))
			return
		}
		ps := tr.begin("pipeline.replay", id, root)
		sess, err := pipeline.NewReplay(c.cfg, prog, rec.tr)
		var rep *pipeline.Result
		if err == nil {
			rep, err = sess.Run(ctx, pipeline.RunOpts{})
		}
		ps.end()
		if err != nil {
			fail(err)
			return
		}
		rep.Scale = c.scale
		us := tr.begin("store.Put", id, root)
		err = dst.Put(key, rep)
		us.end()
		if err != nil {
			fail(err)
			return
		}
		spans = append(spans, gs, ps, us)
		ls := tr.begin("pipeline.live", id, root)
		sess, err = pipeline.New(c.cfg, prog)
		var live *pipeline.Result
		if err == nil {
			live, err = sess.Run(ctx, pipeline.RunOpts{})
		}
		ls.end()
		if err != nil {
			fail(err)
			return
		}
		live.Scale = c.scale
		mu.Lock()
		defer mu.Unlock()
		if !sameResult(eng, rep) || !sameResult(rep, live) {
			t.fail(1, "%s: engine, replay and live results differ", id)
		}
		t.add(1, 0)
		res.Cells[c.bi][c.ci] = eng
		engineSpans[id] = es
		direct[id] = spans
		replayNs += float64(ps.dur())
		liveNs += float64(ls.dur())
		cycles += rep.Cycles
		retired += rep.Retired
	})
	if firstErr != nil {
		return firstErr
	}
	self := tr.selfTimes()
	for id, es := range engineSpans {
		d := self[es.ID]
		for _, s := range direct[id] {
			d -= self[s.ID]
		}
		overhead = append(overhead, float64(d)/float64(time.Millisecond))
	}
	for _, rec := range traces {
		traceBytes += rec.tr.Bytes()
	}
	ws := tr.begin("exper.WriteTable", "sweep", nil)
	err = res.WriteTable(io.Discard)
	ws.end()
	if err != nil {
		return err
	}
	info, err := est.Stat()
	if err != nil {
		return err
	}
	putMs := spanMs(tr.byName("store.Put"))
	getMs := spanMs(tr.byName("store.Get"))
	m["exper.overhead_ms"] = metric{median(overhead), "ms"}
	m["exper.write_table_ms"] = metric{median(spanMs(tr.byName("exper.WriteTable"))), "ms"}
	m["emu.record_ms"] = metric{median(spanMs(tr.byName("emu.Record"))), "ms"}
	m["emu.trace_mb"] = metric{mib(traceBytes), "MiB"}
	m["pipeline.replay_ns_per_inst"] = metric{replayNs / float64(retired), "ns"}
	m["pipeline.live_ns_per_inst"] = metric{liveNs / float64(retired), "ns"}
	m["pipeline.ns_per_cycle"] = metric{replayNs / float64(cycles), "ns"}
	m["pipeline.sim_cycles"] = metric{float64(cycles), "count"}
	m["pipeline.retired"] = metric{float64(retired), "count"}
	m["store.put_ms_p50"] = metric{median(putMs), "ms"}
	m["store.put_ms_p99"] = metric{quantile(putMs, 0.99), "ms"}
	m["store.get_ms_p50"] = metric{median(getMs), "ms"}
	m["store.get_ms_p99"] = metric{quantile(getMs, 0.99), "ms"}
	m["store.bytes_written"] = metric{float64(info.Bytes), "B"}
	return nil
}
