package sample

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/pipeline"
)

// windowBytes returns the bytes runWindow allocates per call on pw under
// cfg once the front-end pool is primed. GOMAXPROCS 1 keeps every take
// on the P that held the released front-end, and a paused collector
// keeps the pool from being drained mid-measurement.
func windowBytes(t *testing.T, cfg pipeline.Config, sc Config, b string, pw PlanWindow) uint64 {
	t.Helper()
	p := prog(t, b).Program(1)
	cfg = cfg.Normalize()
	key := cfg.Key()
	window := func() {
		if _, ok, err := runWindow(context.Background(), cfg, key, p, sc, pw); err != nil || !ok {
			t.Fatalf("window: ok=%v err=%v", ok, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	window() // prime the pool
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		window()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestWindowBytesIndependentOfFrontEndSize pins that a sampled window —
// functional warming, hand-off, detailed run — allocates nothing in
// proportion to the front-end tables once the pool is primed:
// quadrupling the predictor (IndexBits 18 → 20) or the L2 must not add
// bytes per window. The slack absorbs timing-dependent map growth and
// is far below the 768 KB and 240 KB the larger tables would cost.
func TestWindowBytesIndependentOfFrontEndSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const bench = "gcc"
	sc := DefaultConfig().Normalize()
	plan, err := BuildPlan(context.Background(), prog(t, bench).Program(1), sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pw *PlanWindow
	for i := range plan.Windows {
		if w := &plan.Windows[i]; w.WarmFrom < w.Start {
			pw = w
			break
		}
	}
	if pw == nil {
		t.Fatalf("%s: no functionally warmed window in the plan", bench)
	}

	const slack = 8 << 10
	cfg := pipeline.DefaultConfig()
	bigBP, bigL2 := cfg, cfg
	bigBP.BPred.IndexBits, bigBP.BPred.HistoryBits = 20, 20
	bigL2.Caches.L2.SizeB *= 4
	base := windowBytes(t, cfg, sc, bench, *pw)
	bp := windowBytes(t, bigBP, sc, bench, *pw)
	l2 := windowBytes(t, bigL2, sc, bench, *pw)
	t.Logf("bytes per window: default %d, IndexBits 20 %d, 4x L2 %d", base, bp, l2)
	if bp > base+slack {
		t.Errorf("IndexBits 20 allocates %d bytes per window, default %d: the predictor is not pooled", bp, base)
	}
	if l2 > base+slack {
		t.Errorf("4x L2 allocates %d bytes per window, default %d: the caches are not pooled", l2, base)
	}
}
