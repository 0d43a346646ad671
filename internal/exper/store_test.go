package exper

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeRunner builds a fresh engine backed by st — "fresh" models a new
// process sharing the same store directory.
func storeRunner(st *store.Store) *Runner {
	r := NewRunner(2)
	r.SetStore(st)
	return r
}

func TestStoreReadThrough(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "tst")

	cold := storeRunner(st)
	want, err := cold.Run(ctx, pipeline.DefaultConfig(), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs := cold.Stats(); cs.Simulations != 1 || cs.StoreHits != 0 {
		t.Errorf("cold stats = %+v, want 1 simulation, 0 store hits", cs)
	}

	warm := storeRunner(st)
	got, err := warm.Run(ctx, pipeline.DefaultConfig(), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Simulations != 0 || ws.StoreHits != 1 {
		t.Errorf("warm stats = %+v, want 0 simulations, 1 store hit", ws)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("store round trip changed the result:\ncold %+v\nwarm %+v", want, got)
	}

	// Within the warm process, repeats hit memory, not the store again.
	if _, err := warm.Run(ctx, pipeline.DefaultConfig(), b, 1); err != nil {
		t.Fatal(err)
	}
	ws2 := warm.Stats()
	if ws2.StoreHits != 1 || ws2.MemHits != 1 {
		t.Errorf("repeat stats = %+v, want the repeat served from memory", ws2)
	}
}

func TestStoreCorruptEntryResimulated(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "tst")

	cold := storeRunner(st)
	want, err := cold.Run(ctx, pipeline.DefaultConfig(), b, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Scribble over every entry file.
	err = filepath.WalkDir(st.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("not a store entry"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	// A fresh engine must fall back to simulating — corruption is a
	// miss, never an error — and heal the entry by rewriting it.
	warm := storeRunner(st)
	got, err := warm.Run(ctx, pipeline.DefaultConfig(), b, 1)
	if err != nil {
		t.Fatalf("corrupt store surfaced an error: %v", err)
	}
	if ws := warm.Stats(); ws.Simulations != 1 || ws.StoreHits != 0 {
		t.Errorf("stats over corrupt store = %+v, want a resimulation", ws)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("resimulation diverged: %d cycles vs %d", got.Cycles, want.Cycles)
	}

	healed := storeRunner(st)
	if _, err := healed.Run(ctx, pipeline.DefaultConfig(), b, 1); err != nil {
		t.Fatal(err)
	}
	if hs := healed.Stats(); hs.Simulations != 0 || hs.StoreHits != 1 {
		t.Errorf("stats after healing = %+v, want a store hit", hs)
	}
}

func TestStoreExactAndSampledDisjoint(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "tst")
	sc := sample.DefaultConfig()

	r1 := storeRunner(st)
	if _, err := r1.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sc); err != nil {
		t.Fatal(err)
	}

	// A sampled entry must not satisfy an exact request...
	r2 := storeRunner(st)
	if _, err := r2.Run(ctx, pipeline.DefaultConfig(), b, 1); err != nil {
		t.Fatal(err)
	}
	if s2 := r2.Stats(); s2.Simulations != 1 {
		t.Errorf("exact request after sampled run: stats %+v, want a fresh simulation", s2)
	}

	// ...but does satisfy a sampled request under the same regime.
	r3 := storeRunner(st)
	sr, err := r3.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if s3 := r3.Stats(); s3.Simulations != 0 || s3.StoreHits != 1 {
		t.Errorf("sampled rerun stats = %+v, want 0 simulations, 1 store hit", s3)
	}
	if sr.TotalInsts == 0 {
		t.Error("reloaded sampled result lost TotalInsts")
	}

	// A different regime is a different entry.
	sc2 := sc
	sc2.Warmup += 50
	r4 := storeRunner(st)
	if _, err := r4.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sc2); err != nil {
		t.Fatal(err)
	}
	if s4 := r4.Stats(); s4.Simulations != 1 {
		t.Errorf("different regime reused a sampled entry: stats %+v", s4)
	}
}

func TestInstCountPersisted(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "tst")

	r1 := storeRunner(st)
	want, err := r1.InstCount(ctx, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2 := storeRunner(st)
	got, err := r2.InstCount(ctx, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("persisted InstCount = %d, want %d", got, want)
	}
	if s2 := r2.Stats(); s2.StoreHits != 1 {
		t.Errorf("second process recounted instead of hitting the store: %+v", s2)
	}
}

// TestCellsStoreNoCounts: an exact and a sampled sweep on a fresh store
// persist their results and plans but no instruction count, since no
// cell needs one; a later InstCount writes the one count entry, and it
// is the emulator's count.
func TestCellsStoreNoCounts(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	r := storeRunner(st)
	spec := resumeSpec()
	if _, err := r.Sweep(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SweepSampled(ctx, spec, sample.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	info, err := st.Stat()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{store.KindExact: 4, store.KindSampled: 4, store.KindPlan: 2}
	if !reflect.DeepEqual(info.ByKind, want) {
		t.Errorf("store after the sweeps holds %v, want %v", info.ByKind, want)
	}

	b := bench(t, "untst")
	n, err := r.InstCount(ctx, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(b.Program(1))
	m.Run(^uint64(0))
	if n != m.InstCount() {
		t.Errorf("InstCount = %d, the emulator counts %d", n, m.InstCount())
	}
	if info, err = st.Stat(); err != nil {
		t.Fatal(err)
	}
	if got := info.ByKind[store.KindCount]; got != 1 || info.Entries != 11 {
		t.Errorf("after InstCount: %d count entries of %d, want 1 of 11", got, info.Entries)
	}
}

// resumeSpec is a small two-benchmark sweep: 2 benchmarks x (reference
// + 1 variant) = 4 cells.
func resumeSpec() *SweepSpec {
	return &SweepSpec{
		Title:        "resume probe",
		Benchmarks:   []string{"tst", "untst"},
		Scale:        1,
		PerBenchmark: true,
		Variants:     []VariantSpec{{Label: "opt"}},
	}
}

// TestSweepKillAndResume models the crash-resume cycle: a sweep is
// killed mid-flight (context cancellation — the CLI's Ctrl-C path), a
// second invocation completes it simulating only the missing cells,
// and a third performs zero simulations while producing byte-identical
// output.
func TestSweepKillAndResume(t *testing.T) {
	st := openStore(t)
	spec := resumeSpec()
	const totalCells = 4

	// Phase 1: kill the sweep at the first sign of progress. Depending
	// on scheduling, zero or more cells completed — and exactly those
	// are durable.
	killed := storeRunner(st)
	killed.SetProgressInterval(500)
	ctx, cancel := context.WithCancel(context.Background())
	killed.Observe(func(Progress) { cancel() })
	_, err := killed.Sweep(ctx, spec)
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed sweep failed with %v, want context.Canceled", err)
	}

	info, err := st.Stat()
	if err != nil {
		t.Fatal(err)
	}
	persisted := info.ByKind[store.KindExact]
	if persisted >= totalCells {
		// The cancel can in principle land after every cell finished;
		// the resume invariants below still hold, just with nothing
		// left to simulate.
		t.Logf("kill landed late: %d/%d cells persisted", persisted, totalCells)
	}

	// Phase 2: resume. Only the missing cells may simulate; every
	// persisted cell must be a store hit.
	resumed := storeRunner(st)
	sr, err := resumed.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rs := resumed.Stats()
	if int(rs.Simulations) != totalCells-persisted {
		t.Errorf("resume simulated %d cells, want %d (total %d - %d persisted)",
			rs.Simulations, totalCells-persisted, totalCells, persisted)
	}
	if int(rs.StoreHits) != persisted {
		t.Errorf("resume store hits = %d, want %d", rs.StoreHits, persisted)
	}
	var first bytes.Buffer
	if err := sr.WriteTable(&first); err != nil {
		t.Fatal(err)
	}

	// Phase 3: fully warm — zero simulations, byte-identical table.
	warm := storeRunner(st)
	sr2, err := warm.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Simulations != 0 {
		t.Errorf("warm rerun simulated %d cells, want 0", ws.Simulations)
	}
	if int(ws.StoreHits) != totalCells {
		t.Errorf("warm rerun store hits = %d, want %d", ws.StoreHits, totalCells)
	}
	var second bytes.Buffer
	if err := sr2.WriteTable(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("warm sweep output differs from resumed run:\n--- resumed\n%s--- warm\n%s", first.String(), second.String())
	}
	if !strings.Contains(second.String(), "tst") {
		t.Errorf("sweep table looks empty:\n%s", second.String())
	}
}

// planEntry locates the single KindPlan entry of a store.
func planEntry(t *testing.T, st *store.Store) store.Entry {
	t.Helper()
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var plans []store.Entry
	for _, e := range entries {
		if e.Err == nil && e.Key.Kind == store.KindPlan {
			plans = append(plans, e)
		}
	}
	if len(plans) != 1 {
		t.Fatalf("store holds %d plan entries, want 1", len(plans))
	}
	return plans[0]
}

// TestPlanStoreSharedAcrossProcesses is the tentpole invariant at
// engine scope: the fast-forward that builds a sampled-run plan is paid
// once per (benchmark, scale, regime) across every process that shares
// the store — a second process sampling the same workload under a new
// machine configuration loads the plan instead of rebuilding it, and
// the loaded plan drives an estimate identical to a from-scratch run.
func TestPlanStoreSharedAcrossProcesses(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "tst")
	sc := sample.DefaultConfig()
	cfgA := pipeline.DefaultConfig()
	cfgB := pipeline.DefaultConfig()
	cfgB.Opt.MBCEntries /= 2

	r1 := storeRunner(st)
	if _, err := r1.RunSampled(ctx, cfgA, b, 1, sc); err != nil {
		t.Fatal(err)
	}
	if s1 := r1.Stats(); s1.PlanBuilds != 1 || s1.PlanStoreWrites != 1 || s1.PlanStoreHits != 0 {
		t.Errorf("cold process stats = %+v, want 1 plan built and persisted", s1)
	}

	// "Process" 2: a different machine config, so the sampled-result
	// store cannot answer — but the plan store must.
	r2 := storeRunner(st)
	got, err := r2.RunSampled(ctx, cfgB, b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	s2 := r2.Stats()
	if s2.PlanBuilds != 0 || s2.PlanStoreHits != 1 {
		t.Errorf("second process stats = %+v, want the plan loaded, not rebuilt", s2)
	}
	if s2.Simulations != 1 {
		t.Errorf("second process ran %d simulations, want 1 (new config)", s2.Simulations)
	}

	// Within process 2 a third config reuses the now-resident plan from
	// memory; the store is not consulted again.
	cfgC := pipeline.DefaultConfig()
	cfgC.Opt.MBCEntries /= 4
	if _, err := r2.RunSampled(ctx, cfgC, b, 1, sc); err != nil {
		t.Fatal(err)
	}
	if s2b := r2.Stats(); s2b.PlanStoreHits != 1 || s2b.PlanHits != 1 {
		t.Errorf("third config stats = %+v, want a memory plan hit", s2b)
	}

	// The store-loaded plan is indistinguishable: a storeless engine
	// building everything from scratch produces the identical estimate.
	fresh := NewRunner(2)
	want, err := fresh.RunSampled(ctx, cfgB, b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("store-loaded plan diverged from a fresh build:\nfresh %+v\nloaded %+v", want, got)
	}
}

// TestPlanStoreTornEntryRebuilt fault-injects a partial plan write: a
// plan record cut off mid-write must read as a miss (never an error), be
// rebuilt, and be healed for the next process.
func TestPlanStoreTornEntryRebuilt(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "tst")
	sc := sample.DefaultConfig()

	r1 := storeRunner(st)
	if _, err := r1.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sc); err != nil {
		t.Fatal(err)
	}
	// Cut the plan's record in half: its segment now ends mid-record.
	e := planEntry(t, st)
	if err := os.Truncate(e.Path, e.Offset+e.Size/2); err != nil {
		t.Fatal(err)
	}

	cfgB := pipeline.DefaultConfig()
	cfgB.Opt.MBCEntries /= 2
	r2 := storeRunner(st)
	if _, err := r2.RunSampled(ctx, cfgB, b, 1, sc); err != nil {
		t.Fatalf("torn plan entry surfaced an error: %v", err)
	}
	if s2 := r2.Stats(); s2.PlanBuilds != 1 || s2.PlanStoreHits != 0 || s2.PlanStoreWrites != 1 {
		t.Errorf("stats over torn entry = %+v, want a rebuild + healing write", s2)
	}

	cfgC := pipeline.DefaultConfig()
	cfgC.Opt.MBCEntries /= 4
	r3 := storeRunner(st)
	if _, err := r3.RunSampled(ctx, cfgC, b, 1, sc); err != nil {
		t.Fatal(err)
	}
	if s3 := r3.Stats(); s3.PlanBuilds != 0 || s3.PlanStoreHits != 1 {
		t.Errorf("stats after healing = %+v, want a plan store hit", s3)
	}
}

// TestPlanStoreVersionSkewRebuilt replaces the persisted plan with one
// carrying a foreign codec version — what a store shared with an
// incompatible build looks like. It must be ignored and rebuilt, never
// misapplied.
func TestPlanStoreVersionSkewRebuilt(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "tst")
	sc := sample.DefaultConfig()

	r1 := storeRunner(st)
	if _, err := r1.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sc); err != nil {
		t.Fatal(err)
	}
	e := planEntry(t, st)
	stale := map[string]any{"codec": sample.PlanCodecVersion - 1, "program": b.Name}
	if err := st.Put(e.Key, stale); err != nil {
		t.Fatal(err)
	}

	cfgB := pipeline.DefaultConfig()
	cfgB.Opt.MBCEntries /= 2
	r2 := storeRunner(st)
	if _, err := r2.RunSampled(ctx, cfgB, b, 1, sc); err != nil {
		t.Fatalf("stale-codec plan surfaced an error: %v", err)
	}
	if s2 := r2.Stats(); s2.PlanBuilds != 1 || s2.PlanStoreHits != 0 || s2.PlanStoreWrites != 1 {
		t.Errorf("stats over stale-codec entry = %+v, want a rebuild + healing write", s2)
	}
}

// TestStoreSharedAcrossLabels pins the content-hash property end to
// end: two sweeps describing the same machine under different labels
// share store entries, not just memory cache slots.
func TestStoreSharedAcrossLabels(t *testing.T) {
	st := openStore(t)
	specA := &SweepSpec{
		Benchmarks: []string{"tst"},
		Scale:      1,
		Variants:   []VariantSpec{{Label: "alpha"}},
	}
	specB := &SweepSpec{
		Benchmarks: []string{"tst"},
		Scale:      1,
		Variants:   []VariantSpec{{Label: "beta"}},
	}
	r1 := storeRunner(st)
	if _, err := r1.Sweep(context.Background(), specA); err != nil {
		t.Fatal(err)
	}
	r2 := storeRunner(st)
	if _, err := r2.Sweep(context.Background(), specB); err != nil {
		t.Fatal(err)
	}
	if s2 := r2.Stats(); s2.Simulations != 0 {
		t.Errorf("relabeled sweep resimulated %d cells; config content hashing should dedupe them", s2.Simulations)
	}
}
