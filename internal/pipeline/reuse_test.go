package pipeline

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// gccProgram is the gcc built-in at scale 1.
func gccProgram(t *testing.T) *emu.Program {
	t.Helper()
	b, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("gcc missing from the registry")
	}
	return b.Program(1)
}

// driveWheel schedules a seeded random event stream (latencies up to
// the slot count) and returns every take, in order.
func driveWheel(w *wheel[int], seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	var out [][]int
	next := 0
	for cycle := uint64(0); cycle < 300; cycle++ {
		for k := rng.Intn(4); k > 0; k-- {
			w.schedule(cycle, cycle+uint64(rng.Intn(len(w.slots))), next)
			next++
		}
		out = append(out, append([]int(nil), w.take(cycle)...))
	}
	return out
}

// TestWheelResetEqualsNew: a wheel used at one horizon (events left in
// flight) and reset to another behaves exactly like a new wheel of that
// horizon.
func TestWheelResetEqualsNew(t *testing.T) {
	for _, h := range [][2]int{{40, 9}, {9, 40}, {17, 17}} {
		used := newWheel[int](h[0])
		driveWheel(&used, 1)
		used.reset(h[1])
		fresh := newWheel[int](h[1])
		if len(used.slots) != len(fresh.slots) || used.mask != fresh.mask || used.pending() != 0 {
			t.Fatalf("horizon %d→%d: reset wheel has %d slots, mask %d, %d pending; new has %d slots, mask %d",
				h[0], h[1], len(used.slots), used.mask, used.pending(), len(fresh.slots), fresh.mask)
		}
		if a, b := driveWheel(&used, 2), driveWheel(&fresh, 2); !reflect.DeepEqual(a, b) {
			t.Errorf("horizon %d→%d: reset wheel delivers a different event sequence", h[0], h[1])
		}
	}
}

// TestOpRingResetEqualsNew: a ring grown and wrapped, then reset, has
// the size a new ring has and the same FIFO behavior.
func TestOpRingResetEqualsNew(t *testing.T) {
	drive := func(r *opRing, seed int64) []opRef {
		rng := rand.New(rand.NewSource(seed))
		var out []opRef
		for i := 0; i < 500; i++ {
			if rng.Intn(3) > 0 {
				r.push(opRef(i))
			} else if r.len() > 0 {
				out = append(out, r.popFront())
			}
		}
		return out
	}
	for _, c := range [][2]int{{4, 64}, {64, 4}, {10, 10}} {
		used := newOpRing(c[0])
		drive(&used, 1)
		used.reset(c[1])
		fresh := newOpRing(c[1])
		if len(used.buf) != len(fresh.buf) || used.len() != 0 || used.head != 0 {
			t.Fatalf("capacity %d→%d: reset ring has %d slots, %d queued; new has %d", c[0], c[1], len(used.buf), used.len(), len(fresh.buf))
		}
		if a, b := drive(&used, 2), drive(&fresh, 2); !reflect.DeepEqual(a, b) {
			t.Errorf("capacity %d→%d: reset ring pops a different sequence", c[0], c[1])
		}
	}
}

// TestBackEndResetEqualsNew: the back-end a finished session leaves
// behind, reset for another machine shape, matches a back-end built for
// that shape from nothing: register file and optimizer deeply equal,
// every queue, wheel, arena and map empty and sized alike.
func TestBackEndResetEqualsNew(t *testing.T) {
	prog := gccProgram(t)
	big := DefaultConfig()
	big.PRegs, big.WindowSize, big.SchedEntries, big.Opt.MBCEntries = 900, 256, 16, 256
	small := DefaultConfig().Baseline()
	small.PRegs, small.FeedbackDelay = 420, 3
	var regs [isa.NumRegs]uint64
	for i := range regs {
		regs[i] = uint64(i) << 8
	}
	for _, tc := range []struct {
		name     string
		from, to Config
	}{
		{"big to small", big, small},
		{"small to big", small, big},
		{"same", DefaultConfig(), DefaultConfig()},
	} {
		s, err := New(tc.from, prog)
		if err != nil {
			t.Fatal(err)
		}
		used := s.be
		if _, err := s.Run(context.Background(), RunOpts{MaxRetired: 3000}); err != nil {
			t.Fatal(err)
		}
		cfg := tc.to.Normalize()
		shape := backEndShape{fetchCap: 12, renQCap: 20, horizon: 130}
		used.reset(&cfg, &regs, shape)
		fresh := new(backEnd)
		fresh.reset(&cfg, &regs, shape)
		if !reflect.DeepEqual(used.prf, fresh.prf) {
			t.Errorf("%s: reset register file differs from a new one", tc.name)
		}
		if !reflect.DeepEqual(used.opt, fresh.opt) {
			t.Errorf("%s: reset optimizer differs from a new one", tc.name)
		}
		if !reflect.DeepEqual(used.ready, fresh.ready) {
			t.Errorf("%s: reset ready times differ from new ones", tc.name)
		}
		for _, w := range []struct{ a, b int }{
			{len(used.completions.slots), len(fresh.completions.slots)},
			{len(used.feedbackQ.slots), len(fresh.feedbackQ.slots)},
			{len(used.fetchQ.buf), len(fresh.fetchQ.buf)},
			{len(used.renQ.buf), len(fresh.renQ.buf)},
			{len(used.window.buf), len(fresh.window.buf)},
		} {
			if w.a != w.b {
				t.Errorf("%s: a reset queue or wheel has %d slots, a new one %d", tc.name, w.a, w.b)
			}
		}
		empty := used.completions.pending() == 0 && used.feedbackQ.pending() == 0 &&
			used.fetchQ.len() == 0 && used.renQ.len() == 0 && used.window.len() == 0 &&
			len(used.ops) == 0 && len(used.opFree) == 0 && len(used.lastStore) == 0
		for c := range used.scheds {
			empty = empty && len(used.scheds[c]) == 0 && cap(used.scheds[c]) >= cfg.SchedEntries
		}
		if !empty || cap(used.ops) < cap(fresh.ops) {
			t.Errorf("%s: reset back-end is not empty or its arena is undersized", tc.name)
		}
	}
}

// TestWarmDeltaRestoresFrontEnd: a warmer rebuilt from another's delta
// holds exactly the same front-end — caches, predictor and last fetched
// line — and a delta cannot seed a machine of another geometry.
func TestWarmDeltaRestoresFrontEnd(t *testing.T) {
	prog := gccProgram(t)
	cfg := DefaultConfig()
	w := NewWarmer(cfg)
	m := emu.New(prog)
	m.RunObserved(20000, w.Observe)
	d := w.Delta()
	r, err := NewWarmerFrom(cfg.Baseline(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.fe.caches, w.fe.caches) || !reflect.DeepEqual(r.fe.bp, w.fe.bp) || r.lastLine != w.lastLine {
		t.Error("a warmer rebuilt from the delta differs from the warmed one")
	}
	other := cfg
	other.BPred.IndexBits, other.BPred.HistoryBits = 14, 14
	if _, err := NewWarmerFrom(other, d); err == nil {
		t.Error("a delta seeded a warmer of another front-end geometry")
	}
}

// TestLiveRegsExactAfterRun: Run returns the register file to the pool,
// and LiveRegs still reports the count the run ended with — zero for a
// complete run, the in-flight state for a truncated one.
func TestLiveRegsExactAfterRun(t *testing.T) {
	prog := gccProgram(t)
	for _, max := range []uint64{0, 2000} {
		s, err := New(DefaultConfig(), prog)
		if err != nil {
			t.Fatal(err)
		}
		var atEnd int
		s.onRelease = func() { atEnd = s.prf.LiveCount() }
		if _, err := s.Run(context.Background(), RunOpts{MaxRetired: max}); err != nil {
			t.Fatal(err)
		}
		if s.be != nil {
			t.Fatal("Run kept its back-end")
		}
		if got := s.LiveRegs(); got != atEnd {
			t.Errorf("MaxRetired %d: LiveRegs %d after Run, the run ended with %d", max, got, atEnd)
		}
		if max == 0 && atEnd != 0 {
			t.Errorf("complete run leaked %d registers", atEnd)
		}
		if max > 0 && atEnd == 0 {
			t.Error("a truncated run reports no live registers; the check would not tell")
		}
	}
}
