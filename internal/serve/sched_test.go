package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// testJob builds the minimal Job the scheduler needs.
func testJob(id, tenant string, class Class) *Job {
	return &Job{ID: id, Tenant: tenant, Class: class, state: StateQueued}
}

// gatedSched builds a scheduler whose jobs block until their personal
// gate is closed, reporting starts on the returned channel.
func gatedSched(maxJobs, tenantJobs, queueDepth int, gates map[string]chan struct{}) (*sched, chan string) {
	started := make(chan string, 64)
	run := func(j *Job) {
		started <- j.ID
		if g := gates[j.ID]; g != nil {
			<-g
		}
	}
	return newSched(maxJobs, tenantJobs, queueDepth, run, func(*Job) {}), started
}

func recvStart(t *testing.T, started chan string) string {
	t.Helper()
	select {
	case id := <-started:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no job started within 10s")
		return ""
	}
}

func assertNoStart(t *testing.T, started chan string) {
	t.Helper()
	select {
	case id := <-started:
		t.Fatalf("unexpected job start %q", id)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSchedClassPriority(t *testing.T) {
	gates := map[string]chan struct{}{"hold": make(chan struct{})}
	s, started := gatedSched(1, 8, 8, gates)

	// Occupy the single worker slot, then queue one job per class in
	// reverse priority order.
	if err := s.submit(testJob("hold", "t0", Critical)); err != nil {
		t.Fatal(err)
	}
	if got := recvStart(t, started); got != "hold" {
		t.Fatalf("first start = %q, want hold", got)
	}
	for _, j := range []*Job{
		testJob("batch", "t1", Batch),
		testJob("shed", "t2", Sheddable),
		testJob("crit", "t3", Critical),
	} {
		if err := s.submit(j); err != nil {
			t.Fatalf("submit %s: %v", j.ID, err)
		}
	}
	assertNoStart(t, started)

	close(gates["hold"])
	want := []string{"crit", "shed", "batch"}
	for _, w := range want {
		if got := recvStart(t, started); got != w {
			t.Fatalf("dequeue order: got %q, want %q", got, w)
		}
	}
}

func TestSchedPerTenantLimit(t *testing.T) {
	gates := map[string]chan struct{}{
		"a1": make(chan struct{}),
		"a2": make(chan struct{}),
		"b1": make(chan struct{}),
	}
	s, started := gatedSched(2, 1, 8, gates)

	if err := s.submit(testJob("a1", "alice", Batch)); err != nil {
		t.Fatal(err)
	}
	if got := recvStart(t, started); got != "a1" {
		t.Fatalf("first start = %q", got)
	}
	// alice is at her limit: a2 must wait even though a slot is free,
	// and bob's job must skip past it rather than block behind it.
	if err := s.submit(testJob("a2", "alice", Batch)); err != nil {
		t.Fatal(err)
	}
	assertNoStart(t, started)
	if err := s.submit(testJob("b1", "bob", Batch)); err != nil {
		t.Fatal(err)
	}
	if got := recvStart(t, started); got != "b1" {
		t.Fatalf("bob's job should start ahead of alice's second, got %q", got)
	}
	close(gates["a1"])
	if got := recvStart(t, started); got != "a2" {
		t.Fatalf("after a1 finished, a2 should start, got %q", got)
	}
	close(gates["a2"])
	close(gates["b1"])
}

func TestSchedQueueFullAndShedding(t *testing.T) {
	gates := map[string]chan struct{}{"hold": make(chan struct{})}
	defer close(gates["hold"])
	s, started := gatedSched(1, 8, 1, gates)

	if err := s.submit(testJob("hold", "t0", Critical)); err != nil {
		t.Fatal(err)
	}
	recvStart(t, started)
	// One queued critical job fills the depth-1 critical queue.
	if err := s.submit(testJob("c1", "t1", Critical)); err != nil {
		t.Fatal(err)
	}

	// A sheddable job behind a full critical queue is shed, with a
	// positive Retry-After — the acceptance scenario.
	var shed *shedError
	if err := s.submit(testJob("s1", "t2", Sheddable)); !errors.As(err, &shed) {
		t.Fatalf("sheddable submit = %v, want shedError", err)
	} else if shed.RetryAfter < 1 {
		t.Fatalf("RetryAfter = %d, want >= 1", shed.RetryAfter)
	}
	// Batch sheds identically.
	if err := s.submit(testJob("b1", "t3", Batch)); !errors.As(err, &shed) {
		t.Fatalf("batch submit = %v, want shedError", err)
	}
	// Even a critical job bounces off its own full queue.
	if err := s.submit(testJob("c2", "t4", Critical)); !errors.As(err, &shed) {
		t.Fatalf("critical submit over full queue = %v, want shedError", err)
	}
	if _, _, shedCount := s.depths(); shedCount != 3 {
		t.Fatalf("shed count = %d, want 3", shedCount)
	}
}

func TestSchedDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	var evicted []string
	s := newSched(1, 8, 8,
		func(j *Job) { started <- j.ID; <-release },
		func(j *Job) { evicted = append(evicted, j.ID) })

	if err := s.submit(testJob("running", "t0", Critical)); err != nil {
		t.Fatal(err)
	}
	recvStart(t, started)
	if err := s.submit(testJob("waiting", "t1", Batch)); err != nil {
		t.Fatal(err)
	}

	// Drain with a deadline: the queued job is evicted immediately and
	// the running one is force-released via cancelRunning.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.drain(ctx, func() { close(release) })

	if len(evicted) != 1 || evicted[0] != "waiting" {
		t.Fatalf("evicted = %v, want [waiting]", evicted)
	}
	if err := s.submit(testJob("late", "t2", Critical)); !errors.Is(err, errDraining) {
		t.Fatalf("submit during drain = %v, want errDraining", err)
	}
}
