package exper

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// bytesOf charges an int value its own magnitude, so tests can size
// entries directly.
func bytesOf(v int) int64 { return int64(v) }

// settledGet is get for tests that expect success.
func settledGet[K comparable](t *testing.T, c *cache[K, int], k K, v int) (got int, leader bool) {
	t.Helper()
	got, leader, err := c.get(context.Background(), k, func(context.Context) (int, error) { return v, nil })
	if err != nil {
		t.Fatalf("get(%v): %v", k, err)
	}
	return got, leader
}

// TestCacheCanceledLeaderHandsOff: a leader canceled mid-run vacates
// the slot instead of poisoning it; exactly one live waiter takes over,
// so the key is computed once more and every waiter gets that value.
func TestCacheCanceledLeaderHandsOff(t *testing.T) {
	c := newCache[string, int](nil, nil)
	var calls atomic.Int32
	started := make(chan struct{})
	do := func(ctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 42, nil
	}

	lctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.get(lctx, "k", do)
		leaderErr <- err
	}()
	<-started

	const waiters = 8
	var wg sync.WaitGroup
	got := make([]int, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, errs[i] = c.get(context.Background(), "k", do)
		}(i)
	}
	cancel()
	wg.Wait()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled leader returned %v, want context.Canceled", err)
	}
	for i := range got {
		if errs[i] != nil || got[i] != 42 {
			t.Errorf("waiter %d: got (%d, %v), want (42, nil)", i, got[i], errs[i])
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("do ran %d times, want 2 (the canceled leader and one takeover)", n)
	}
}

// TestCacheMemoizesDeterministicError: a failure that is not
// context-shaped stays in the slot; later callers get it without
// rerunning the work.
func TestCacheMemoizesDeterministicError(t *testing.T) {
	c := newCache[string, int](nil, nil)
	boom := errors.New("boom")
	var calls int
	do := func(context.Context) (int, error) { calls++; return 7, boom }
	for i := 0; i < 3; i++ {
		v, leader, err := c.get(context.Background(), "k", do)
		if !errors.Is(err, boom) || v != 0 {
			t.Errorf("call %d: got (%d, %v), want (0, boom)", i, v, err)
		}
		if leader != (i == 0) {
			t.Errorf("call %d: leader = %v", i, leader)
		}
	}
	if calls != 1 {
		t.Errorf("do ran %d times, want 1", calls)
	}
	if _, ok := c.peek("k"); ok {
		t.Error("peek reported a failed slot as settled")
	}
}

// TestCacheSeedAndPeek: seed never overwrites a slot, settled or in
// flight, and peek answers at once even while a leader is running.
func TestCacheSeedAndPeek(t *testing.T) {
	c := newCache[string, int](nil, nil)
	if !c.seed("a", 1) {
		t.Fatal("seed of a fresh key did not install")
	}
	if c.seed("a", 2) {
		t.Error("seed overwrote a settled value")
	}
	if v, ok := c.peek("a"); !ok || v != 1 {
		t.Errorf("peek(a) = (%d, %v), want (1, true)", v, ok)
	}
	if v, leader := settledGet(t, c, "a", 99); v != 1 || leader {
		t.Errorf("get(a) = (%d, leader %v), want the seeded 1 as a hit", v, leader)
	}

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.get(context.Background(), "b", func(context.Context) (int, error) {
			close(started)
			<-release
			return 3, nil
		})
		done <- v
	}()
	<-started
	if _, ok := c.peek("b"); ok {
		t.Error("peek reported an in-flight slot as settled")
	}
	if c.seed("b", 4) {
		t.Error("seed overwrote an in-flight slot")
	}
	close(release)
	if v := <-done; v != 3 {
		t.Errorf("leader got %d, want 3", v)
	}
	if v, ok := c.peek("b"); !ok || v != 3 {
		t.Errorf("peek(b) = (%d, %v), want (3, true)", v, ok)
	}
}

// TestCacheLRUAcrossCaches: two caches sharing one lru evict in one
// recency order — a touched entry survives, the cold one goes.
func TestCacheLRUAcrossCaches(t *testing.T) {
	l := &lru{budget: 10}
	a := newCache[string](l, bytesOf)
	b := newCache[int](l, bytesOf)
	settledGet(t, a, "hot", 4)
	settledGet(t, b, 1, 4)
	if _, leader := settledGet(t, a, "hot", 4); leader {
		t.Fatal("resident entry recomputed")
	}
	settledGet(t, b, 2, 4) // 12 bytes > 10: evict the least recent

	if _, ok := a.peek("hot"); !ok {
		t.Error("touched entry was evicted")
	}
	if _, ok := b.peek(1); ok {
		t.Error("cold entry survived eviction")
	}
	if _, ok := b.peek(2); !ok {
		t.Error("newest entry was evicted")
	}
	if n := l.bytes(); n != 8 {
		t.Errorf("resident = %d bytes, want 8", n)
	}
}

// TestCacheOverBudgetNotRetained: a value larger than the whole budget
// is returned to its callers but never made resident.
func TestCacheOverBudgetNotRetained(t *testing.T) {
	l := &lru{budget: 10}
	c := newCache[string](l, bytesOf)
	settledGet(t, c, "small", 5)
	if v, _ := settledGet(t, c, "big", 11); v != 11 {
		t.Errorf("get(big) = %d, want 11", v)
	}
	if _, ok := c.peek("big"); ok {
		t.Error("over-budget value is resident")
	}
	if _, ok := c.peek("small"); !ok {
		t.Error("over-budget value evicted a resident one")
	}
	if n := l.bytes(); n != 5 {
		t.Errorf("resident = %d bytes, want 5", n)
	}
	if _, leader := settledGet(t, c, "big", 11); !leader {
		t.Error("unretained value served as a hit")
	}
}

// TestCacheShrinkEvictsOldestFirst: lowering the budget evicts in
// least-recently-used order, and a budget of 0 releases everything.
func TestCacheShrinkEvictsOldestFirst(t *testing.T) {
	l := &lru{budget: 100}
	c := newCache[string](l, bytesOf)
	for _, k := range []string{"a", "b", "c"} {
		settledGet(t, c, k, 10)
	}
	resident := func() (ks string) {
		for _, k := range []string{"a", "b", "c"} {
			if _, ok := c.peek(k); ok {
				ks += k
			}
		}
		return ks
	}
	for _, step := range []struct {
		budget int64
		want   string
	}{{20, "bc"}, {10, "c"}, {0, ""}} {
		l.setBudget(step.budget)
		if got := resident(); got != step.want {
			t.Errorf("budget %d: resident %q, want %q", step.budget, got, step.want)
		}
	}
	if n := l.bytes(); n != 0 {
		t.Errorf("resident = %d bytes after budget 0, want 0", n)
	}
}

// TestCacheBudgetDropDuringLeader: a value whose leader finishes after
// the budget dropped to 0 reaches its caller but is not retained or
// charged — a disabled budget holds nothing.
func TestCacheBudgetDropDuringLeader(t *testing.T) {
	l := &lru{budget: 100}
	c := newCache[string](l, bytesOf)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.get(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 50, nil
		})
		done <- v
	}()
	<-started
	l.setBudget(0)
	close(release)
	if v := <-done; v != 50 {
		t.Errorf("leader got %d, want 50", v)
	}
	if _, ok := c.peek("k"); ok {
		t.Error("value settled after the budget dropped to 0 is resident")
	}
	if n := l.bytes(); n != 0 {
		t.Errorf("resident = %d bytes, want 0", n)
	}
}
