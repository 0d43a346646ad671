package pipeline

// This file holds the allocation-free substrate of the cycle loop: a
// fixed-horizon event wheel (replacing the per-cycle completion and
// feedback maps) and a power-of-two ring queue (replacing head-pop
// slicing of the fetch/rename/window queues). Both recycle their
// backing storage for the whole run, so the steady-state loop performs
// no heap allocation and no map hashing.

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// wheel is a fixed-horizon timing wheel: an event scheduled fewer than
// `horizon` cycles ahead lands in the ring slot `at & mask`. The
// horizon invariant — every in-flight event's fire time is less than
// one horizon ahead of the current cycle — guarantees each slot holds
// events for exactly one fire cycle, so take never has to filter.
// Sessions size the horizon from every latency Config.Validate allows
// (see Config.shape), so the invariant always holds; schedule panics if
// it does not. Slot slices are reset to length zero on take and their
// backing arrays reused, so a wheel allocates only while slots grow
// toward their steady-state size.
type wheel[T any] struct {
	slots [][]T
	mask  uint64
}

func newWheel[T any](horizon int) wheel[T] {
	var w wheel[T]
	w.reset(horizon)
	return w
}

// reset empties the wheel and resizes it to horizon, behaving from then
// on exactly like newWheel(horizon): the slot ring is reused when large
// enough, and each slot keeps the capacity it grew to.
func (w *wheel[T]) reset(horizon int) {
	h := nextPow2(horizon)
	if cap(w.slots) < h {
		w.slots = make([][]T, h)
	}
	w.slots = w.slots[:h]
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
	w.mask = uint64(h - 1)
}

// schedule adds an event firing at cycle at; now is the current cycle
// and must satisfy now <= at < now + horizon.
func (w *wheel[T]) schedule(now, at uint64, ev T) {
	if at-now >= uint64(len(w.slots)) {
		panic("pipeline: event scheduled beyond the wheel horizon")
	}
	i := at & w.mask
	w.slots[i] = append(w.slots[i], ev)
}

// take removes and returns the events due at cycle now. The returned
// slice aliases wheel-owned storage: it is valid until an event is
// scheduled a full horizon later (impossible within the current cycle),
// so callers must consume it before advancing the cycle and must not
// retain it.
func (w *wheel[T]) take(now uint64) []T {
	i := now & w.mask
	evs := w.slots[i]
	if len(evs) == 0 {
		// Fast path for the overwhelmingly common empty cycle: no
		// slice-header store.
		return nil
	}
	w.slots[i] = evs[:0]
	return evs
}

// pending returns the total number of scheduled, untaken events.
func (w *wheel[T]) pending() int {
	n := 0
	for i := range w.slots {
		n += len(w.slots[i])
	}
	return n
}

// drain removes every scheduled event, in no particular order, handing
// each to fn. Used at end of run to release references still held by
// in-flight events.
func (w *wheel[T]) drain(fn func(T)) {
	for i := range w.slots {
		for _, ev := range w.slots[i] {
			fn(ev)
		}
		w.slots[i] = w.slots[i][:0]
	}
}

// opRing is a growable power-of-two circular queue of in-flight op
// references. Unlike the previous `q = q[1:]` head-pop slices, popping
// advances an index into a stable backing array, so a run-long queue
// never leaks capacity or churns allocations. Holding opRefs rather
// than *dynOp pointers keeps the queues pointer-free: pushing an op is
// an int32 store with no GC write barrier.
type opRing struct {
	buf  []opRef
	head int
	n    int
}

func newOpRing(capacity int) opRing {
	var r opRing
	r.reset(capacity)
	return r
}

// reset empties the ring and sizes it for capacity, behaving from then
// on exactly like newOpRing(capacity); the buffer is reused when large
// enough.
func (r *opRing) reset(capacity int) {
	n := nextPow2(capacity)
	if cap(r.buf) < n {
		r.buf = make([]opRef, n)
	}
	r.buf = r.buf[:n]
	r.head, r.n = 0, 0
}

func (r *opRing) len() int { return r.n }

func (r *opRing) push(op opRef) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = op
	r.n++
}

// front returns the oldest op; the ring must be non-empty.
func (r *opRing) front() opRef { return r.buf[r.head] }

// popFront removes and returns the oldest op; the ring must be
// non-empty.
func (r *opRing) popFront() opRef {
	op := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return op
}

func (r *opRing) grow() {
	nb := make([]opRef, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}
