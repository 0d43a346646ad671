package exper

import (
	"container/list"
	"context"
	"sync"
)

// cache is the engine's one memo: a keyed map of settled values that
// collapses concurrent requests for a key onto one execution, and
// optionally charges what it retains to a shared byte budget (lru).
// Every engine-level cache — exact results, sampled estimates,
// instruction counts, traces and sampled-run plans — is a cache.
type cache[K comparable, V any] struct {
	mu   *sync.Mutex // the lru's mutex when bounded, so eviction can drop entries
	m    map[K]*entry[V]
	lru  *lru          // nil: every settled value stays resident
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

// newCache returns an empty cache. With a nil lru it retains every
// settled value; otherwise each value is charged size(v) bytes against
// the lru's budget, which it may share with other caches.
func newCache[K comparable, V any](l *lru, size func(V) int64) *cache[K, V] {
	c := &cache[K, V]{m: map[K]*entry[V]{}, lru: l, size: size}
	if l != nil {
		c.mu = &l.mu
	} else {
		c.mu = new(sync.Mutex)
	}
	return c
}

// get returns the value for k, running do to compute it if no call has
// yet. The first caller to claim the slot (the leader) runs do; waiters
// block until it finishes or their own ctx dies. A leader that fails
// with a context-shaped error vacates the slot before waking waiters,
// so the work is not poisoned: a live waiter retries and takes over as
// the new leader. Deterministic failures — including *PanicError and
// *WatchdogError — stay memoized, because rerunning them cannot help.
// leader reports whether this call executed do itself.
func (c *cache[K, V]) get(ctx context.Context, k K, do func(context.Context) (V, error)) (val V, leader bool, err error) {
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
			v, err := do(ctx)
			if err != nil {
				v = zero
			}
			c.settle(k, e, v, err)
			return v, true, err
		}

		select {
		case <-e.done:
			if e.err == nil {
				return e.val, false, nil
			}
			if ctxErr(e.err) {
				// The previous leader was canceled, not the work:
				// retry, and take over if the slot is still vacant.
				continue
			}
			return zero, false, e.err
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
}

// settle publishes the leader's outcome for e and wakes its waiters. A
// context-shaped failure vacates the slot; a value the lru cannot
// retain is handed to the current waiters but dropped from the map.
func (c *cache[K, V]) settle(k K, e *entry[V], v V, err error) {
	c.mu.Lock()
	e.val, e.err = v, err
	switch {
	case err != nil && ctxErr(err):
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

// seed installs v as the settled value for k unless the key already
// has a slot (settled or in flight), reporting whether it did.
func (c *cache[K, V]) seed(k K, v V) bool {
	c.mu.Lock()
	if _, ok := c.m[k]; ok {
		c.mu.Unlock()
		return false
	}
	e := &entry[V]{done: make(chan struct{})}
	c.m[k] = e
	c.mu.Unlock()
	c.settle(k, e, v, nil)
	return true
}

// peek returns k's settled, successful value without waiting or
// computing anything.
func (c *cache[K, V]) peek(k K) (V, bool) {
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

// lru is a byte budget shared by one or more caches. It lists resident
// values most recently used first and evicts from the back, so touch
// and evict are O(1). A value larger than the budget is never retained,
// and a budget <= 0 retains nothing.
type lru struct {
	mu       sync.Mutex // also guards every cache sharing this lru
	order    list.List  // of *lruItem, front = most recently used
	budget   int64
	resident int64
}

type lruItem struct {
	bytes int64
	drop  func() // removes the value from its cache; called with mu held
}

// admit charges n bytes for a newly settled value and evicts older
// values until the budget fits again. It returns the value's position,
// or nil if the value cannot be retained at all. Callers hold mu.
func (l *lru) admit(n int64, drop func()) *list.Element {
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
func (l *lru) evict() {
	for l.order.Len() > 0 && (l.budget <= 0 || l.resident > l.budget) {
		it := l.order.Remove(l.order.Back()).(*lruItem)
		l.resident -= it.bytes
		it.drop()
	}
}

// setBudget replaces the budget, evicting down to it.
func (l *lru) setBudget(n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.budget = n
	l.evict()
}

// limit returns the current budget.
func (l *lru) limit() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.budget
}

// bytes returns the resident bytes charged against the budget.
func (l *lru) bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resident
}
