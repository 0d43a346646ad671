package pipeline

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
)

// allocBody exercises every recycled structure on the steady-state
// path: loads and stores (lastStore map, memDep links, MBC installs),
// a long-latency multiply (event wheel at depth), and the loop's own
// branch (feedback, early resolution).
const allocBody = `
    ldq [r3] -> r4
    add r4, 3 -> r5
    stq r5 -> [r3]
    mul r5, r2 -> r6
    ldq [r3+8] -> r7
    add r7, r6 -> r8
`

// runAllocs builds and runs one session over prog and returns the
// average allocation count of the whole New+Run pair.
func runAllocs(t *testing.T, cfg Config, prog *emu.Program) (allocs float64, retired uint64) {
	t.Helper()
	var res *Result
	allocs = testing.AllocsPerRun(3, func() {
		s, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(context.Background(), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res = r
	})
	return allocs, res.Retired
}

// TestRunSteadyStateAllocationFree is the allocation regression gate of
// the arena/wheel/ring redesign: growing the instruction count must not
// grow the allocation count. Comparing a short and a long run of the
// same program cancels the fixed session-construction cost, so the
// assertion is on the marginal allocations per retired instruction —
// which must be (near) zero. This also pins the dispatch-queue
// capacity-leak fix: the old `renQ = renQ[1:]` pattern re-allocated the
// backing array throughout the run and fails this bound by orders of
// magnitude, as did the per-fetch &dynOp{} and per-cycle completion-map
// churn.
func TestRunSteadyStateAllocationFree(t *testing.T) {
	short, err := asm.Assemble("alloc-short", loopProg(100, allocBody))
	if err != nil {
		t.Fatal(err)
	}
	long, err := asm.Assemble("alloc-long", loopProg(3000, allocBody))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultConfig(), DefaultConfig().Baseline()} {
		aShort, rShort := runAllocs(t, cfg, short)
		aLong, rLong := runAllocs(t, cfg, long)
		extraInsts := float64(rLong - rShort)
		perInst := (aLong - aShort) / extraInsts
		t.Logf("%s: %.0f allocs @ %d insts, %.0f allocs @ %d insts -> %.5f allocs/inst",
			cfg.Name, aShort, rShort, aLong, rLong, perInst)
		if perInst > 0.01 {
			t.Errorf("%s: %.4f allocations per retired instruction in steady state, want ~0 (arena/wheel regression)",
				cfg.Name, perInst)
		}
	}
}

// replayAllocs is runAllocs over the trace-replay fetch path: the trace
// is recorded once outside the measured region, so the figure is the
// marginal cost of one timing pass over a shared buffer.
func replayAllocs(t *testing.T, cfg Config, prog *emu.Program) (allocs float64, retired uint64) {
	t.Helper()
	tr, err := emu.Record(context.Background(), prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	allocs = testing.AllocsPerRun(3, func() {
		s, err := NewReplay(cfg, prog, tr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(context.Background(), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res = r
	})
	return allocs, res.Retired
}

// TestReplaySteadyStateAllocationFree extends the allocation gate to
// the trace-replay fetch path: timing a pre-recorded stream must add ~0
// marginal allocations per retired instruction, same bound as the live
// path — replay swaps the stream source, not the cycle loop.
func TestReplaySteadyStateAllocationFree(t *testing.T) {
	short, err := asm.Assemble("alloc-short", loopProg(100, allocBody))
	if err != nil {
		t.Fatal(err)
	}
	long, err := asm.Assemble("alloc-long", loopProg(3000, allocBody))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultConfig(), DefaultConfig().Baseline()} {
		aShort, rShort := replayAllocs(t, cfg, short)
		aLong, rLong := replayAllocs(t, cfg, long)
		extraInsts := float64(rLong - rShort)
		perInst := (aLong - aShort) / extraInsts
		t.Logf("%s replay: %.0f allocs @ %d insts, %.0f allocs @ %d insts -> %.5f allocs/inst",
			cfg.Name, aShort, rShort, aLong, rLong, perInst)
		if perInst > 0.01 {
			t.Errorf("%s: %.4f allocations per retired instruction replaying a trace, want ~0",
				cfg.Name, perInst)
		}
	}
}

// TestLastStoreEvicted checks the store-dependence map is bounded by
// the in-flight window rather than the run's store footprint: after a
// run that stores to thousands of distinct addresses, the map must be
// empty (every store retired and evicted its entry).
func TestLastStoreEvicted(t *testing.T) {
	// Walk a pointer through a large buffer, storing at each step:
	// every iteration stores to a fresh address.
	src := `
start:
    ldi cnt -> r1
    ldq [r1] -> r2
    ldi buf -> r3
loop:
    stq r2 -> [r3]
    add r3, 8 -> r3
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x40000
.data cnt
.quad 2000
.data buf
.quad 0
`
	prog, err := asm.Assemble("evict", src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// Inspect the map as the run ends, before the back-end (and the
	// map with it) returns to the pool.
	s.onRelease = func() {
		if n := len(s.lastStore); n != 0 {
			t.Errorf("lastStore retains %d entries after the run; stores must evict at retire", n)
		}
	}
	if _, err := s.Run(context.Background(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
}

// windowBytes returns the bytes one warmed detailed window allocates
// under cfg — warmer, hand-off, warmup plus measured run — once the
// pools are primed. GOMAXPROCS 1 keeps every take on the P that held
// the released front-end and back-end, and a paused collector keeps
// the pools from being drained mid-measurement.
func windowBytes(t *testing.T, cfg Config, prog *emu.Program, ck *emu.Checkpoint) uint64 {
	t.Helper()
	window := func() {
		m := emu.NewAt(prog, ck)
		w := NewWarmer(cfg)
		w.Warm(m, 2000)
		s, err := w.Seed(prog, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), RunOpts{MaxRetired: 500, WarmupRetired: 200}); err != nil {
			t.Fatal(err)
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

// growFrontEnd returns cfg with a 4× predictor table (IndexBits 18 →
// 20) and, separately, a 4× L2: the front-end tables a window used to
// allocate afresh and now takes from the pool.
func growFrontEnd(cfg Config) (bigBP, bigL2 Config) {
	bigBP, bigL2 = cfg, cfg
	bigBP.BPred.IndexBits, bigBP.BPred.HistoryBits = 20, 20
	bigL2.Caches.L2.SizeB *= 4
	return bigBP, bigL2
}

// TestWindowBytesIndependentOfFrontEndSize pins that a warmed detailed
// window allocates at most 24 KB — front-end and back-end both come
// from their pools, and the machine resumes its checkpoint without
// copying the image — and nothing in proportion to the front-end
// tables: with the pools primed, quadrupling the predictor or the L2
// must not add bytes per window (the slack absorbs timing-dependent map
// growth, far below the 768 KB and 240 KB the larger tables would
// cost).
func TestWindowBytesIndependentOfFrontEndSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	prog, err := asm.Assemble("window-bytes", loopProg(3000, allocBody))
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(prog)
	m.Run(1000)
	ck := m.Snapshot()

	const slack = 8 << 10
	cfg := DefaultConfig()
	bigBP, bigL2 := growFrontEnd(cfg)
	base := windowBytes(t, cfg, prog, ck)
	bp := windowBytes(t, bigBP, prog, ck)
	l2 := windowBytes(t, bigL2, prog, ck)
	t.Logf("bytes per window: default %d, IndexBits 20 %d, 4x L2 %d", base, bp, l2)
	if bp > base+slack {
		t.Errorf("IndexBits 20 allocates %d bytes per window, default %d: the predictor is not pooled", bp, base)
	}
	if l2 > base+slack {
		t.Errorf("4x L2 allocates %d bytes per window, default %d: the caches are not pooled", l2, base)
	}
	const maxBytes = 24 << 10
	if base > maxBytes {
		t.Errorf("a window allocates %d bytes, over the %d-byte bound: part of the session is not pooled", base, maxBytes)
	}
}
