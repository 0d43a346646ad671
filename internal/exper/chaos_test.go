package exper

// The engine half of the chaos battery (ISSUE 10): injected store
// failures, panicking cells and wedged windows, each asserted to cost
// exactly what the failure model promises — one cell, some
// durability, never a sweep and never the process. The serve-level
// half lives in internal/serve; the store-level half in
// internal/store.
//
// Every test arms the process fault registry, so none of them may run
// in parallel (they do not call t.Parallel, and the package's other
// tests leave the registry untouched).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// TestChaosWriteBehindDegrades is the headline acceptance scenario:
// ENOSPC on every store write from the first cell on. The sweep must
// complete with zero lost cells, the table must be byte-identical to
// a storeless run, and the engine must degrade to memory-only caching
// exactly once.
func TestChaosWriteBehindDegrades(t *testing.T) {
	defer fault.Reset()
	spec, err := ParseSpec([]byte(`{
		"title": "chaos",
		"benchmarks": ["mcf", "tst"],
		"scale": 1,
		"variants": [{"label": "opt"}, {"label": "mbc32", "set": {"Opt.MBCEntries": 32}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}

	clean := NewRunner(2)
	want, err := clean.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantTable bytes.Buffer
	if err := want.WriteTable(&wantTable); err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable("store.write:err=ENOSPC"); err != nil {
		t.Fatal(err)
	}
	r := storeRunner(openStore(t))
	r.SetStoreRetry(2, time.Millisecond)
	logged := &logBuffer{}
	r.SetLogf(logged.logf)
	sr, err := r.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("sweep failed under ENOSPC write-behind: %v", err)
	}

	for bi := range sr.Benches {
		for vi := range spec.Variants {
			if sr.Cells[bi][vi] == nil || sr.Cells[bi][vi+1] == nil {
				t.Fatalf("lost cell [%d][%d] to a store failure", bi, vi)
			}
		}
	}
	var gotTable bytes.Buffer
	if err := sr.WriteTable(&gotTable); err != nil {
		t.Fatal(err)
	}
	if gotTable.String() != wantTable.String() {
		t.Errorf("degraded sweep table differs from the clean run:\n--- clean\n%s--- degraded\n%s",
			wantTable.String(), gotTable.String())
	}
	st := r.Stats()
	if st.StoreDegraded != 1 {
		t.Errorf("StoreDegraded = %d, want exactly 1 (degrade once, then stay memory-only)", st.StoreDegraded)
	}
	if st.StoreRetries == 0 {
		t.Error("StoreRetries = 0, want transient retries before degrading")
	}
	if !strings.Contains(logged.String(), "degraded to memory-only") {
		t.Errorf("degradation not logged; log was:\n%s", logged.String())
	}
}

// logBuffer captures engine log lines from simulation goroutines.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.b, format+"\n", args...)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestChaosReadThroughRetries: a transient EIO on the first read of a
// warm entry must be retried and served from the store — no
// resimulation, no degradation.
func TestChaosReadThroughRetries(t *testing.T) {
	defer fault.Reset()
	st := openStore(t)
	b := bench(t, "tst")
	want := mustRun(t, storeRunner(st), pipeline.DefaultConfig(), b, 1)

	if err := fault.Enable("store.read:err=EIO:times=1"); err != nil {
		t.Fatal(err)
	}
	warm := storeRunner(st)
	warm.SetStoreRetry(4, time.Millisecond)
	got := mustRun(t, warm, pipeline.DefaultConfig(), b, 1)
	if !reflect.DeepEqual(want, got) {
		t.Error("retried read returned a different result")
	}
	ws := warm.Stats()
	if ws.Simulations != 0 || ws.StoreHits != 1 {
		t.Errorf("stats = %+v, want the EIO retried into a store hit", ws)
	}
	if ws.StoreRetries == 0 || ws.StoreDegraded != 0 {
		t.Errorf("stats = %+v, want retries > 0 and no degradation", ws)
	}
}

// TestChaosTornPlanEntryHeals: a sampled-run window plan torn mid-write
// (its record cut off at the end of a segment) is a miss, not an error —
// the plan rebuilds, the estimate matches, and the rewrite heals the
// entry.
func TestChaosTornPlanEntryHeals(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "untst")
	cold := storeRunner(st)
	want, err := cold.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sample.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Tear the plan entries mid-write; drop the sampled results so the
	// warm engine must resimulate through the plan rather than serve
	// the result entry directly. Records are self-delimiting, so each
	// segment is rewritten as its other records, then the first half of
	// each plan record: a torn tail, as a crash mid-append leaves it.
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	type cut struct {
		off, n int64
		torn   bool
	}
	cuts := map[string][]cut{}
	torn := 0
	for _, e := range entries {
		switch e.Key.Kind {
		case store.KindPlan:
			cuts[e.Path] = append(cuts[e.Path], cut{e.Offset, e.Size, true})
			torn++
		case store.KindSampled:
			cuts[e.Path] = append(cuts[e.Path], cut{e.Offset, e.Size, false})
		}
	}
	if torn == 0 {
		t.Fatal("sampled run persisted no plan entry to tear")
	}
	for path, cs := range cuts {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].off < cs[j].off })
		var out, tails []byte
		from := int64(0)
		for _, c := range cs {
			out = append(out, data[from:c.off]...)
			if c.torn {
				tails = append(tails, data[c.off:c.off+c.n/2]...)
			}
			from = c.off + c.n
		}
		out = append(append(out, data[from:]...), tails...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A new handle, as a new process would open: st indexed the old
	// offsets.
	st, err = store.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}

	warm := storeRunner(st)
	got, err := warm.RunSampled(ctx, pipeline.DefaultConfig(), b, 1, sample.DefaultConfig())
	if err != nil {
		t.Fatalf("torn plan surfaced an error: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("rebuilt plan produced a different sampled result")
	}
	ws := warm.Stats()
	if ws.PlanBuilds != 1 || ws.PlanStoreHits != 0 {
		t.Errorf("stats = %+v, want the torn plan rebuilt, not store-served", ws)
	}

	entries, err = st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Key.Kind == store.KindPlan && e.Err != nil {
			t.Errorf("plan entry %s not healed: %v", e.Path, e.Err)
		}
	}
}

// TestChaosPanickingCellContained: an injected panic inside one cell
// becomes that cell's memoized *PanicError; other cells are untouched
// and the panic is counted exactly once.
func TestChaosPanickingCellContained(t *testing.T) {
	defer fault.Reset()
	if err := fault.Enable("exper.cell:panic:key=mcf"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := NewRunner(2)
	logged := &logBuffer{}
	r.SetLogf(logged.logf)

	_, err := r.Run(ctx, pipeline.DefaultConfig(), bench(t, "mcf"), 1)
	pe := fault.AsPanic(err)
	if pe == nil {
		t.Fatalf("panicking cell returned %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Op, "mcf") || pe.Stack == "" {
		t.Errorf("PanicError lacks operation or stack: op=%q stack=%d bytes", pe.Op, len(pe.Stack))
	}

	// The healthy cell still runs; the panicking one is memoized and
	// not re-counted.
	if _, err := r.Run(ctx, pipeline.DefaultConfig(), bench(t, "tst"), 1); err != nil {
		t.Fatalf("healthy cell failed alongside a contained panic: %v", err)
	}
	if _, err2 := r.Run(ctx, pipeline.DefaultConfig(), bench(t, "mcf"), 1); fault.AsPanic(err2) == nil {
		t.Errorf("memoized panic lost its type: %v", err2)
	}
	st := r.Stats()
	if st.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want exactly 1 (memoized repeats must not re-count)", st.PanicsRecovered)
	}
	if !strings.Contains(logged.String(), "recovered panic") {
		t.Errorf("recovered panic not logged; log was:\n%s", logged.String())
	}
	if !strings.Contains(st.String(), "1 panics recovered") {
		t.Errorf("stats line missing the recovered panic:\n%s", st.String())
	}
}

// TestMatrixCallbackPanicCancelsAndJoins: Matrix's per-cell fan-out
// is a panic boundary. A done callback that panics on one cell fails
// the call with a *PanicError naming that cell, cancels its sibling
// cells (here wedged in a hang that only cancellation ends), and joins
// every cell goroutine before returning: no cell still holds a
// worker-pool slot once Matrix is back.
func TestMatrixCallbackPanicCancelsAndJoins(t *testing.T) {
	defer fault.Reset()
	if err := fault.Enable("exper.cell:hang=30s:key=mcf/"); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(4)
	benches := []*workloads.Benchmark{bench(t, "untst"), bench(t, "mcf")}
	cfgs := []pipeline.Config{pipeline.DefaultConfig().Baseline(), pipeline.DefaultConfig()}

	start := time.Now()
	cells, err := r.Matrix(context.Background(), benches, cfgs, 1, nil, func(bi, ci int) {
		if bi != 0 || ci != 0 {
			return
		}
		// Panic only once both mcf cells are wedged, so the panic has
		// live siblings to cancel.
		for deadline := time.Now().Add(10 * time.Second); fault.Fires("exper.cell") < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		panic("callback boom")
	})
	if cells != nil {
		t.Error("a Matrix that failed returned cells")
	}
	pe := fault.AsPanic(err)
	if pe == nil {
		t.Fatalf("Matrix with a panicking callback returned %v, want *PanicError", err)
	}
	if want := "untst/" + cfgs[0].Name; !strings.Contains(pe.Op, want) || pe.Value != "callback boom" || pe.Stack == "" {
		t.Errorf("PanicError op=%q value=%v stack=%d bytes; want the op to name cell %s", pe.Op, pe.Value, len(pe.Stack), want)
	}
	if n := fault.Fires("exper.cell"); n != 2 {
		t.Errorf("%d cells hung, want both mcf cells", n)
	}
	if busy := len(r.sem); busy != 0 {
		t.Errorf("%d cells still hold a worker slot after Matrix returned", busy)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("Matrix took %s: the hung siblings were not canceled", d)
	}
}

// TestPlanLeaderPanicDoesNotWedge: a plan leader that panics (here in
// its store read) fails its own sampled cell with a recovered panic and
// vacates the plan slot, so a later sampled cell of the same workload
// on another machine builds the plan itself instead of waiting forever
// on the dead leader.
func TestPlanLeaderPanicDoesNotWedge(t *testing.T) {
	defer fault.Reset()
	r := storeRunner(openStore(t))
	b := bench(t, "mcf")
	sc := sample.DefaultConfig()
	// The cell's own result read is the first store read; its plan
	// leader's is the second.
	if err := fault.Enable("store.read:panic:nth=2"); err != nil {
		t.Fatal(err)
	}
	_, err := r.RunSampled(context.Background(), pipeline.DefaultConfig(), b, 1, sc)
	if fault.AsPanic(err) == nil {
		t.Fatalf("the cell whose plan leader panicked returned %v, want *PanicError", err)
	}
	fault.Reset()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := r.RunSampled(ctx, pipeline.DefaultConfig().Baseline(), b, 1, sc); err != nil {
		t.Fatalf("a later sampled cell of the same workload: %v (wedged on the panicked plan leader)", err)
	}
	if st := r.Stats(); st.PanicsRecovered != 1 || st.PlanBuilds != 1 {
		t.Errorf("PanicsRecovered = %d, PlanBuilds = %d; want the panic counted once and the plan built by the later cell", st.PanicsRecovered, st.PlanBuilds)
	}
}

// TestChaosWedgedWindowKilled: a sampled window that hangs forever is
// diagnosed by the soft watchdog and killed by the hard one, surfacing
// a memoized *WatchdogError instead of wedging the sweep.
func TestChaosWedgedWindowKilled(t *testing.T) {
	defer fault.Reset()
	if err := fault.Enable("sample.window:hang=30s:key=tst"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := NewRunner(2)
	r.SetWatchdog(200*time.Millisecond, time.Second)
	logged := &logBuffer{}
	r.SetLogf(logged.logf)

	start := time.Now()
	_, err := r.RunSampled(ctx, pipeline.DefaultConfig(), bench(t, "tst"), 1, sample.DefaultConfig())
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("wedged window returned %v after %s, want *WatchdogError", err, time.Since(start))
	}
	if !strings.Contains(we.Op, "tst") {
		t.Errorf("WatchdogError op %q does not name the cell", we.Op)
	}
	st := r.Stats()
	if st.WatchdogKills == 0 {
		t.Errorf("stats = %+v, want a watchdog kill", st)
	}
	if st.WatchdogStalls == 0 {
		t.Errorf("stats = %+v, want a soft-deadline stall diagnostic before the kill", st)
	}
	if !strings.Contains(logged.String(), "goroutine dump") {
		t.Error("soft watchdog did not log a goroutine dump")
	}

	// The wedge is deterministic, so waiters must not re-run it:
	// the error memoizes and returns instantly.
	start = time.Now()
	if _, err2 := r.RunSampled(ctx, pipeline.DefaultConfig(), bench(t, "tst"), 1, sample.DefaultConfig()); !errors.As(err2, &we) {
		t.Errorf("repeat returned %v, want the memoized *WatchdogError", err2)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("memoized wedge took %s, want an instant answer", d)
	}

	// The same runner still completes healthy work.
	if _, err := r.RunSampled(ctx, pipeline.DefaultConfig(), bench(t, "untst"), 1, sample.DefaultConfig()); err != nil {
		t.Fatalf("healthy sampled cell failed alongside the wedge: %v", err)
	}
}

// TestChaosDegradeThenReattach: once the injected ENOSPC clears, the
// degraded engine's next probe re-attaches the store and writes flow
// again — the paper-trail for the operator-freed-space story.
func TestChaosDegradeThenReattach(t *testing.T) {
	defer fault.Reset()
	// times=2 is exactly the retry budget below: the first Put spends
	// the whole fault, degrading the engine, and every later store
	// operation (including the probe) sees a healthy filesystem.
	if err := fault.Enable("store.write:err=ENOSPC:times=2"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st := openStore(t)
	r := storeRunner(st)
	r.SetStoreRetry(2, time.Millisecond)
	r.SetStoreProbe(5 * time.Millisecond)

	if _, err := r.Run(ctx, pipeline.DefaultConfig(), bench(t, "tst"), 1); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.StoreDegraded != 1 {
		t.Fatalf("stats = %+v, want the first cell to degrade the store", s)
	}

	// Past the probe interval, the next store operation re-attaches.
	time.Sleep(20 * time.Millisecond)
	if _, err := r.Run(ctx, pipeline.DefaultConfig(), bench(t, "untst"), 1); err != nil {
		t.Fatal(err)
	}
	if r.degraded.Load() {
		t.Fatal("engine still degraded after the fault cleared and the probe interval passed")
	}

	// The re-attached write is durable: a fresh engine reads it back.
	fresh := storeRunner(st)
	if _, err := fresh.Run(ctx, pipeline.DefaultConfig(), bench(t, "untst"), 1); err != nil {
		t.Fatal(err)
	}
	if fs := fresh.Stats(); fs.StoreHits != 1 || fs.Simulations != 0 {
		t.Errorf("fresh stats = %+v, want the re-attached write served as a store hit", fs)
	}
}

// TestChaosDegradedShardMerges: a shard that ran store-degraded
// persists nothing; the merge must report exactly its cells missing
// (not fail, not fabricate), and re-running that shard after the
// fault clears completes the merge byte-identically to a
// single-process run.
func TestChaosDegradedShardMerges(t *testing.T) {
	defer fault.Reset()
	ctx := context.Background()
	spec, err := ParseSpec([]byte(`{
		"title": "shard chaos",
		"benchmarks": ["mcf", "tst", "untst"],
		"scale": 1,
		"variants": [{"label": "opt"}, {"label": "mbc32", "set": {"Opt.MBCEntries": 32}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}

	golden := NewRunner(2)
	gsr, err := golden.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := gsr.WriteTable(&want); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()

	// Shard 0 runs under persistent ENOSPC: it degrades and persists
	// nothing, but still reports its owned cells done.
	if err := fault.Enable("store.write:err=ENOSPC"); err != nil {
		t.Fatal(err)
	}
	sick := storeRunner(openShardStore(t, dir))
	sick.SetStoreRetry(2, time.Millisecond)
	rep0, err := sick.SweepShard(ctx, spec, Shard{Index: 0, Count: 2}, nil)
	if err != nil {
		t.Fatalf("degraded shard failed: %v", err)
	}
	if s := sick.Stats(); s.StoreDegraded != 1 {
		t.Fatalf("stats = %+v, want the sick shard degraded once", s)
	}
	fault.Reset()

	// Shard 1 runs clean.
	if _, err := storeRunner(openShardStore(t, dir)).SweepShard(ctx, spec, Shard{Index: 1, Count: 2}, nil); err != nil {
		t.Fatal(err)
	}

	// The merge stays store-only and honest: exactly the degraded
	// shard's cells are missing.
	merger := storeRunner(openShardStore(t, dir))
	_, missing, err := merger.SweepMerge(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != rep0.OwnedCells {
		t.Fatalf("merge reported %d missing cells %v, want the degraded shard's %d", len(missing), missing, rep0.OwnedCells)
	}

	// Re-run the degraded shard on a healthy filesystem; the merge
	// then completes and matches the single-process table.
	if _, err := storeRunner(openShardStore(t, dir)).SweepShard(ctx, spec, Shard{Index: 0, Count: 2}, nil); err != nil {
		t.Fatal(err)
	}
	msr, missing, err := merger.SweepMerge(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("merge still missing %v after the shard re-ran", missing)
	}
	var got bytes.Buffer
	if err := msr.WriteTable(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("healed merge differs from the single-process run:\n--- single\n%s--- merged\n%s",
			want.String(), got.String())
	}
}
