package pipeline

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/asm"
)

// TestWheelMatchesReferenceWithinHorizon drives a wheel and a reference
// map scheduler with the same randomized event stream (all latencies
// within the horizon, like a correctly sized session wheel) and
// requires the exact per-cycle take order to match: slot order is
// insertion order, so wheel and map deliver identical sequences.
func TestWheelMatchesReferenceWithinHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		horizon := 1 + rng.Intn(64)
		w := newWheel[int](horizon)
		// The usable horizon is the rounded-up power-of-two slot count.
		usable := len(w.slots)
		ref := map[uint64][]int{}
		next := 0
		for cycle := uint64(0); cycle < 500; cycle++ {
			for k := rng.Intn(4); k > 0; k-- {
				at := cycle + uint64(rng.Intn(usable))
				w.schedule(cycle, at, next)
				ref[at] = append(ref[at], next)
				next++
			}
			got := w.take(cycle)
			want := ref[cycle]
			delete(ref, cycle)
			if len(got) != len(want) {
				t.Fatalf("trial %d cycle %d: wheel took %d events, reference %d", trial, cycle, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d cycle %d: take order %v, reference %v", trial, cycle, got, want)
				}
			}
		}
		if w.pending() != len(flatten(ref)) {
			t.Fatalf("trial %d: %d events pending, reference holds %d", trial, w.pending(), len(flatten(ref)))
		}
	}
}

func flatten(m map[uint64][]int) []int {
	var out []int
	for _, evs := range m {
		out = append(out, evs...)
	}
	return out
}

// TestWheelDrain checks that drain hands back every scheduled event —
// the end-of-run path that releases references held by in-flight
// feedback events.
func TestWheelDrain(t *testing.T) {
	w := newWheel[int](8)
	for i := 0; i < 20; i++ {
		w.schedule(0, uint64(i%8), i)
	}
	seen := map[int]bool{}
	w.drain(func(ev int) { seen[ev] = true })
	if len(seen) != 20 {
		t.Fatalf("drain returned %d events, want 20", len(seen))
	}
	if w.pending() != 0 {
		t.Fatalf("%d events pending after drain", w.pending())
	}
	if got := w.take(0); len(got) != 0 {
		t.Fatalf("take after drain returned %v", got)
	}
}

// TestWheelRejectsOverrun: an event a full horizon ahead or more
// panics instead of landing in a slot another cycle owns.
func TestWheelRejectsOverrun(t *testing.T) {
	w := newWheel[int](8)
	w.schedule(5, 5+uint64(len(w.slots))-1, 0) // the furthest allowed
	defer func() {
		if recover() == nil {
			t.Error("scheduling a full horizon ahead did not panic")
		}
	}()
	w.schedule(5, 5+uint64(len(w.slots)), 1)
}

// TestSessionWheelsNeverSpill checks the horizon invariant on real
// runs: the default and baseline machines, and a machine with every
// latency that feeds the wheels (register read, each cache level,
// memory, feedback) at Validate's cap. Its cold loads miss every level,
// so its events land as far ahead as any valid config can put them;
// an event past the horizon would panic in schedule.
func TestSessionWheelsNeverSpill(t *testing.T) {
	src := loopProg(10, `
    ldq [r3] -> r4
    div r4, r2 -> r5
    mul r5, 3 -> r6
    stq r6 -> [r3]
`)
	prog, err := asm.Assemble("spill", src)
	if err != nil {
		t.Fatal(err)
	}
	slow := DefaultConfig()
	slow.Name = "slowest"
	slow.RegReadLat, slow.FeedbackDelay = MaxLatency, MaxLatency
	slow.Caches.L1D.Latency, slow.Caches.L2.Latency, slow.Caches.MemLatency = MaxLatency, MaxLatency, MaxLatency
	for _, cfg := range []Config{DefaultConfig(), DefaultConfig().Baseline(), slow} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		// The furthest ahead an event can land: a completion after
		// register read plus a load that misses everywhere and
		// generates its address, then its feedback.
		furthest := cfg.RegReadLat + cfg.Caches.L1D.Latency + cfg.Caches.L2.Latency + cfg.Caches.MemLatency + 1 + cfg.FeedbackDelay
		s, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if h := uint64(len(s.completions.slots)); h <= furthest || uint64(len(s.feedbackQ.slots)) != h {
			t.Errorf("%s: wheel horizons %d and %d do not cover events %d cycles ahead",
				cfg.Name, h, len(s.feedbackQ.slots), furthest)
		}
		res, err := s.Run(context.Background(), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Retired == 0 {
			t.Errorf("%s: retired nothing", cfg.Name)
		}
	}
}

// TestOpRingFIFO checks ring order across growth and wraparound.
func TestOpRingFIFO(t *testing.T) {
	r := newOpRing(2)
	next, expect := opRef(0), opRef(0)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 10000; step++ {
		if rng.Intn(2) == 0 {
			r.push(next)
			next++
		} else if r.len() > 0 {
			if got := r.front(); got != expect {
				t.Fatalf("step %d: front = %d, want %d", step, got, expect)
			}
			if got := r.popFront(); got != expect {
				t.Fatalf("step %d: popFront = %d, want %d", step, got, expect)
			}
			expect++
		}
	}
	for r.len() > 0 {
		if got := r.popFront(); got != expect {
			t.Fatalf("drain: popFront = %d, want %d", got, expect)
		}
		expect++
	}
	if next != expect {
		t.Fatalf("pushed %d values, popped %d", next, expect)
	}
}
