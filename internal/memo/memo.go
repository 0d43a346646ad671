// Package memo is the program's one keyed memo: a map of settled values
// that collapses concurrent requests for a key onto one execution (the
// leader runs the work, waiters block and share its outcome) and
// optionally charges what it retains to a byte budget (an LRU) that
// several caches may share. The experiment engine keeps its results,
// instruction counts and sampled-run plans in Caches, and a sampled-run
// plan keeps the functional warming its windows record in one.
//
// A leader's outcome decides what the slot keeps:
//
//   - a value stays memoized (subject to the LRU);
//   - a deterministic error stays memoized too, because rerunning the
//     work cannot help;
//   - a context-shaped error (canceled or expired) vacates the slot:
//     the leader was abandoned, not the work, so a live waiter retries
//     and takes over as the new leader;
//   - a panic vacates the slot and wakes the waiters the same way,
//     then continues up the leader's stack, so one panicking leader
//     can never wedge the callers behind it.
//
// The package imports only the standard library.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Cache maps keys to settled values. The zero value is not usable;
// call New. A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu   *sync.Mutex // the LRU's mutex when bounded, so eviction can drop entries
	m    map[K]*entry[V]
	lru  *LRU          // nil: every settled value stays resident
	size func(V) int64 // bytes a value charges to lru
}

// entry is one slot. The leader (the caller that created it) sets val
// and err, then closes done; waiters block on done and read them after.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
	elem *list.Element // position in the lru while resident there
}

// errPanicked is what a panicking leader leaves its waiters: a vacated
// slot they retry, like a canceled leader's.
var errPanicked = errors.New("memo: leader panicked")

// New returns an empty cache. With a nil LRU it retains every settled
// value; otherwise each value is charged size(v) bytes against the
// LRU's budget, which it may share with other caches.
func New[K comparable, V any](l *LRU, size func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{m: map[K]*entry[V]{}, lru: l, size: size}
	if l != nil {
		c.mu = &l.mu
	} else {
		c.mu = new(sync.Mutex)
	}
	return c
}

// Get returns the value for k, running do to compute it if no call has
// yet. The first caller to claim the slot (the leader) runs do; waiters
// block until it settles or their own ctx dies. leader reports whether
// this call executed do itself. See the package comment for what each
// outcome leaves in the slot.
func (c *Cache[K, V]) Get(ctx context.Context, k K, do func(context.Context) (V, error)) (val V, leader bool, err error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, false, err
		}
		c.mu.Lock()
		e, ok := c.m[k]
		if !ok {
			e = &entry[V]{done: make(chan struct{})}
			c.m[k] = e
		} else if e.elem != nil {
			c.lru.order.MoveToFront(e.elem)
		}
		c.mu.Unlock()

		if !ok {
			v, err := c.lead(ctx, k, e, do)
			return v, true, err
		}

		select {
		case <-e.done:
			if e.err == nil {
				return e.val, false, nil
			}
			if vacates(e.err) {
				// The previous leader was canceled or panicked, not
				// the work: retry, and take over if the slot is still
				// vacant.
				continue
			}
			return zero, false, e.err
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
}

// lead runs do as k's leader and settles e on every return path: a
// panic in do vacates the slot and wakes the waiters before it
// continues up the leader's stack.
func (c *Cache[K, V]) lead(ctx context.Context, k K, e *entry[V], do func(context.Context) (V, error)) (v V, err error) {
	settled := false
	defer func() {
		if !settled {
			var zero V
			c.settle(k, e, zero, errPanicked)
		}
	}()
	v, err = do(ctx)
	if err != nil {
		var zero V
		v = zero
	}
	settled = true
	c.settle(k, e, v, err)
	return v, err
}

// settle publishes the leader's outcome for e and wakes its waiters. A
// failure a retry can fix vacates the slot; a value the LRU cannot
// retain is handed to the current waiters but dropped from the map.
func (c *Cache[K, V]) settle(k K, e *entry[V], v V, err error) {
	c.mu.Lock()
	e.val, e.err = v, err
	switch {
	case err != nil && vacates(err):
		delete(c.m, k)
	case err == nil && c.lru != nil:
		e.elem = c.lru.admit(c.size(v), func() { delete(c.m, k) })
		if e.elem == nil {
			delete(c.m, k)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// vacates reports whether a leader's failure empties its slot rather
// than staying memoized: a panic, or the shape a canceled or expired
// context produces.
func vacates(err error) bool {
	return err == errPanicked || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Recharge re-sizes k's resident value, whose size may have changed
// since it was admitted, and evicts down to the budget. It does nothing
// when k is not resident in the LRU.
func (c *Cache[K, V]) Recharge(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok || e.elem == nil {
		return
	}
	it := e.elem.Value.(*lruItem)
	n := c.size(e.val)
	c.lru.resident += n - it.bytes
	it.bytes = n
	c.lru.evict()
}

// Peek returns k's settled, successful value without waiting or
// computing anything.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			if e.err == nil {
				return e.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
}

// Range calls f for every settled, successful value. f runs with the
// cache locked and must not call back into it (or into a cache sharing
// its LRU).
func (c *Cache[K, V]) Range(f func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		select {
		case <-e.done:
			if e.err == nil {
				f(k, e.val)
			}
		default:
		}
	}
}

// Len returns the number of slots, settled or in flight.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// LRU is a byte budget shared by one or more caches. It lists resident
// values most recently used first and evicts from the back, so touch
// and evict are O(1). A value larger than the budget is never retained,
// and a budget <= 0 retains nothing.
type LRU struct {
	mu       sync.Mutex // also guards every cache sharing this LRU
	order    list.List  // of *lruItem, front = most recently used
	budget   int64
	resident int64
}

type lruItem struct {
	bytes int64
	drop  func() // removes the value from its cache; called with mu held
}

// NewLRU returns an empty LRU with the given byte budget.
func NewLRU(budget int64) *LRU { return &LRU{budget: budget} }

// admit charges n bytes for a newly settled value and evicts older
// values until the budget fits again. It returns the value's position,
// or nil if the value cannot be retained at all. Callers hold mu.
func (l *LRU) admit(n int64, drop func()) *list.Element {
	if l.budget <= 0 || n > l.budget {
		return nil
	}
	el := l.order.PushFront(&lruItem{bytes: n, drop: drop})
	l.resident += n
	l.evict()
	return el
}

// evict drops least-recently used values until the resident bytes fit
// the budget (all of them when the budget is <= 0). Callers hold mu.
func (l *LRU) evict() {
	for l.order.Len() > 0 && (l.budget <= 0 || l.resident > l.budget) {
		it := l.order.Remove(l.order.Back()).(*lruItem)
		l.resident -= it.bytes
		it.drop()
	}
}

// SetBudget replaces the budget, evicting down to it.
func (l *LRU) SetBudget(n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.budget = n
	l.evict()
}

// Bytes returns the resident bytes charged against the budget.
func (l *LRU) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resident
}
