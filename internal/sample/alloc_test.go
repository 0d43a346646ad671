package sample

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/memo"
	"repro/internal/pipeline"
)

// windowBytes returns the bytes runWindow allocates per call on pw
// (window idx of its plan) under cfg once the pools — and wm, when
// non-nil — are primed. GOMAXPROCS 1 keeps every take on the P that
// held the released front-end and back-end, and a paused collector
// keeps the pools from being drained mid-measurement.
func windowBytes(t *testing.T, cfg pipeline.Config, sc Config, b string, pw PlanWindow, idx int, wm *warmMemo) uint64 {
	t.Helper()
	p := prog(t, b).Program(1)
	cfg = cfg.Normalize()
	key := cfg.Key()
	window := func() {
		if _, ok, err := runWindow(context.Background(), cfg, key, p, sc, pw, idx, wm); err != nil || !ok {
			t.Fatalf("window: ok=%v err=%v", ok, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	window() // prime the pools (and the memo)
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		window()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// maxWindowBytes bounds what one sampled window may allocate once the
// pools are primed: the session and warmer headers, the Result copy and
// the memory pages the window writes (copied on write from its
// checkpoint). Front-end, back-end and memory image are all reused.
const maxWindowBytes = 24 << 10

// TestWindowBytesIndependentOfFrontEndSize pins that a sampled window —
// functional warming (or resuming shared warming), hand-off, detailed
// run — allocates at most maxWindowBytes, and nothing in proportion to
// the front-end tables: quadrupling the predictor (IndexBits 18 → 20)
// or the L2 must not add bytes per window. The slack absorbs
// timing-dependent map growth and is far below the 768 KB and 240 KB
// the larger tables would cost.
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
	idx := -1
	for i, w := range plan.Windows {
		if w.WarmFrom < w.Start {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("%s: no functionally warmed window in the plan", bench)
	}
	pw := plan.Windows[idx]

	const slack = 8 << 10
	cfg := pipeline.DefaultConfig()
	bigBP, bigL2 := cfg, cfg
	bigBP.BPred.IndexBits, bigBP.BPred.HistoryBits = 20, 20
	bigL2.Caches.L2.SizeB *= 4
	base := windowBytes(t, cfg, sc, bench, pw, idx, nil)
	bp := windowBytes(t, bigBP, sc, bench, pw, idx, nil)
	l2 := windowBytes(t, bigL2, sc, bench, pw, idx, nil)
	shared := windowBytes(t, cfg, sc, bench, pw, idx, memo.New[warmKey, *warmStart](nil, nil))
	t.Logf("bytes per window: default %d, IndexBits 20 %d, 4x L2 %d, resuming shared warming %d", base, bp, l2, shared)
	if bp > base+slack {
		t.Errorf("IndexBits 20 allocates %d bytes per window, default %d: the predictor is not pooled", bp, base)
	}
	if l2 > base+slack {
		t.Errorf("4x L2 allocates %d bytes per window, default %d: the caches are not pooled", l2, base)
	}
	for _, c := range []struct {
		name  string
		bytes uint64
	}{{"a privately warmed window", base}, {"a window resuming shared warming", shared}} {
		if c.bytes > maxWindowBytes {
			t.Errorf("%s allocates %d bytes, over the %d-byte bound: part of the session is not pooled", c.name, c.bytes, maxWindowBytes)
		}
	}
}
