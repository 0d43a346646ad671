package exper

// Cancellation semantics of the engine: canceled callers get
// ctx-wrapped errors promptly, and a canceled singleflight leader hands
// the work off to waiters instead of poisoning the cache slot. Run
// these under -race (CI does): the leader/waiter handoff is exactly the
// kind of code data races hide in.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func TestRunPreCanceledContext(t *testing.T) {
	r := NewRunner(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.Run(ctx, pipeline.DefaultConfig(), bench(t, "mcf"), 1)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Run = (%v, %v), want error wrapping context.Canceled", res, err)
	}
	if st := r.Stats(); st.Simulations != 0 {
		t.Errorf("pre-canceled request still simulated: %+v", st)
	}
}

func TestRunMidSimulationCancel(t *testing.T) {
	r := NewRunner(1)
	b := bench(t, "mcf")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.Run(ctx, pipeline.DefaultConfig(), b, b.DefaultScale)
	if err == nil {
		t.Skip("simulation finished before the cancel landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v should wrap context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	// The slot must be vacated: a fresh caller for the SAME
	// (config, benchmark, scale) key re-runs and succeeds.
	res, err := r.Run(context.Background(), pipeline.DefaultConfig(), b, b.DefaultScale)
	if err != nil || res == nil {
		t.Fatalf("engine poisoned after canceled run: (%v, %v)", res, err)
	}
}

// TestCanceledLeaderHandsOffToWaiters is the singleflight-corruption
// probe: a leader whose context dies mid-simulation must not poison
// concurrent waiters for the same key — one of them takes over and all
// of them receive the same completed result.
func TestCanceledLeaderHandsOffToWaiters(t *testing.T) {
	r := NewRunner(4)
	b := bench(t, "mcf")
	cfg := pipeline.DefaultConfig()
	scale := b.DefaultScale

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.Run(leaderCtx, cfg, b, scale)
		leaderErr <- err
	}()
	// Let the leader claim the slot and enter the simulation, then
	// launch waiters on live contexts and kill the leader under them.
	time.Sleep(2 * time.Millisecond)
	const waiters = 8
	results := make([]*pipeline.Result, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(context.Background(), cfg, b, scale)
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	cancelLeader()

	wg.Wait()
	if err := <-leaderErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("leader error %v should be nil (finished first) or wrap context.Canceled", err)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d failed after leader cancel: %v", i, errs[i])
		}
		if results[i] == nil || results[i] != results[0] {
			t.Errorf("waiter %d result %p differs from waiter 0's %p", i, results[i], results[0])
		}
	}
	if results[0].Retired == 0 {
		t.Error("handed-off simulation produced an empty result")
	}
}

// TestMatrixCancellationReturnsAndJoins checks the mid-sweep story: a
// canceled Matrix returns an error wrapping context.Canceled and only
// after every worker goroutine has exited (Matrix wg.Waits internally;
// -race plus the engine reuse below would catch stragglers).
func TestMatrixCancellationReturnsAndJoins(t *testing.T) {
	r := NewRunner(2)
	benches := workloadSample(t)
	cfgs := []pipeline.Config{pipeline.DefaultConfig().Baseline(), pipeline.DefaultConfig()}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	cells, err := r.Matrix(ctx, benches, cfgs, benches[0].DefaultScale, nil, nil)
	if err == nil {
		t.Skip("matrix finished before the cancel landed")
	}
	if cells != nil {
		t.Error("canceled Matrix should not return cells")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v should wrap context.Canceled", err)
	}
	// The engine must remain usable for the same cells afterwards.
	cells, err = r.Matrix(context.Background(), benches, cfgs, 1, nil, nil)
	if err != nil || len(cells) != len(benches) {
		t.Fatalf("engine unusable after canceled matrix: (%v, %v)", cells, err)
	}
}

func TestSweepCancellation(t *testing.T) {
	r := NewRunner(2)
	spec := &SweepSpec{
		Title:      "cancel probe",
		Benchmarks: []string{"mcf", "untst", "gcc"},
		Variants:   []VariantSpec{{Label: "opt"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Sweep(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep returned %v, want error wrapping context.Canceled", err)
	}
}

func TestInstCountCancellation(t *testing.T) {
	r := NewRunner(1)
	b := bench(t, "mcf")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.InstCount(ctx, b, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled InstCount returned %v, want error wrapping context.Canceled", err)
	}
	// And the slot recovers.
	if n, err := r.InstCount(context.Background(), b, 1); err != nil || n == 0 {
		t.Errorf("InstCount after canceled request = (%d, %v)", n, err)
	}
}

func workloadSample(t *testing.T) []*workloads.Benchmark {
	t.Helper()
	return []*workloads.Benchmark{bench(t, "mcf"), bench(t, "untst"), bench(t, "gcc")}
}
