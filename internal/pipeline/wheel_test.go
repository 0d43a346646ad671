package pipeline

import (
	"context"
	"math/rand"
	"sort"
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
		if w.spilled != 0 {
			t.Fatalf("trial %d: %d events spilled with all latencies within the horizon", trial, w.spilled)
		}
	}
}

// TestWheelSpillMatchesReferenceSet schedules events up to 3x beyond
// the horizon, forcing the overflow spill path, and requires each
// cycle's delivered event set to equal the reference map's. Order
// within a cycle may differ (spilled events append after slot events),
// which the simulator is insensitive to: completions and feedback
// events within one cycle touch disjoint physical registers, so
// intra-cycle permutation cannot change machine state.
func TestWheelSpillMatchesReferenceSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		horizon := 1 + rng.Intn(16)
		w := newWheel[int](horizon)
		ref := map[uint64][]int{}
		next := 0
		spilledSome := false
		for cycle := uint64(0); cycle < 800; cycle++ {
			for k := rng.Intn(4); k > 0; k-- {
				at := cycle + uint64(rng.Intn(3*len(w.slots)))
				w.schedule(cycle, at, next)
				ref[at] = append(ref[at], next)
				next++
			}
			if w.spilled > 0 {
				spilledSome = true
			}
			got := append([]int(nil), w.take(cycle)...)
			want := append([]int(nil), ref[cycle]...)
			delete(ref, cycle)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("trial %d cycle %d: wheel took %d events, reference %d", trial, cycle, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d cycle %d: event set %v, reference %v", trial, cycle, got, want)
				}
			}
		}
		if !spilledSome {
			t.Fatalf("trial %d: spill path never exercised", trial)
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
		w.schedule(0, uint64(i*3), i) // some within horizon, some spilled
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

// TestSessionWheelsNeverSpill runs a real simulation and checks the
// horizon invariant: with the wheel sized from the worst-case
// execution latency plus the feedback delay, no event of a default-
// config session ever takes the spill path.
func TestSessionWheelsNeverSpill(t *testing.T) {
	src := loopProg(300, `
    ldq [r3] -> r4
    div r4, r2 -> r5
    mul r5, 3 -> r6
    stq r6 -> [r3]
`)
	prog, err := asm.Assemble("spill", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultConfig(), DefaultConfig().Baseline()} {
		s, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		// Inspect the wheels as the run ends, before the back-end
		// returns to the pool.
		s.onRelease = func() {
			if s.completions.spill != nil || s.feedbackQ.spill != nil {
				t.Errorf("%s: wheel spilled (completions=%v feedback=%v); horizon undersized",
					cfg.Name, s.completions.spill != nil, s.feedbackQ.spill != nil)
			}
		}
		if _, err := s.Run(context.Background(), RunOpts{}); err != nil {
			t.Fatal(err)
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
