package exper

// Failure containment for the engine: this file is where a panicking
// cell becomes one failed cell, a sick store becomes a slower (then
// memory-only) cache, and a wedged cell becomes a diagnosed, canceled
// cell — instead of any of them taking down the process or the sweep.
//
// Three mechanisms, layered onto the existing seams:
//
//   - panic containment: every cache leader runs inside
//     protect(), which recovers a panic into a *PanicError (operation,
//     value, stack) that memoizes and propagates like any other
//     deterministic cell failure;
//   - store resilience: all store reads and writes go through
//     storeRead/storeWrite, which classify failures (store.Classify),
//     retry transient I/O with bounded exponential backoff + seeded
//     jitter, and — once the budget is exhausted or the error is fatal
//     — degrade the engine to memory-only caching, probing
//     periodically to re-attach. The store is an optimization; losing
//     it costs durability, never a sweep;
//   - watchdogs: an optional soft deadline per cell logs a goroutine
//     dump when exceeded (diagnosis), and a hard deadline cancels the
//     cell through the same context seam cancellation already uses,
//     surfacing a *WatchdogError that memoizes — a cell that wedges
//     deterministically is not retried forever by waiters.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
)

// PanicError is a recovered panic carrying the failed operation, the
// panic value and the goroutine stack; see fault.PanicError. The alias
// lets engine callers (CLI, serve) name the type without importing the
// fault package.
type PanicError = fault.PanicError

// WatchdogError reports a cell canceled by the hard watchdog deadline.
// It is deliberately not context-shaped: the engine's cache memoizes
// it, so waiters of a deterministically wedged cell fail fast instead
// of re-running the wedge in turn.
type WatchdogError struct {
	// Op names the watched operation ("cell mcf/optimized").
	Op string
	// Limit is the hard deadline the operation exceeded.
	Limit time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("exper: watchdog killed %s after %s", e.Op, e.Limit)
}

// Resilience defaults. Retries target transient pressure (EMFILE under
// load, EINTR): a handful of quick attempts, then give up on the store
// rather than stall simulations behind a sick disk.
const (
	defaultRetryAttempts = 4
	defaultRetryBase     = 2 * time.Millisecond
	defaultProbeEvery    = 10 * time.Second
)

// SetLogf routes the engine's diagnostic log lines (degradation,
// recovered panics, watchdog events) to fn. The default drops them.
// Set before launching work.
func (r *Runner) SetLogf(fn func(format string, args ...any)) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	r.logFn = fn
}

// SetStoreRetry overrides the transient-I/O retry policy: attempts
// total tries per store operation (minimum 1) with exponential backoff
// starting at base between them. Zero values restore defaults.
func (r *Runner) SetStoreRetry(attempts int, base time.Duration) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	if attempts <= 0 {
		attempts = defaultRetryAttempts
	}
	if base <= 0 {
		base = defaultRetryBase
	}
	r.retryAttempts, r.retryBase = attempts, base
}

// SetStoreProbe overrides how often a degraded engine probes the store
// for re-attachment. Zero restores the default.
func (r *Runner) SetStoreProbe(every time.Duration) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	if every <= 0 {
		every = defaultProbeEvery
	}
	r.probeEvery = every
}

// SetWatchdog arms per-cell deadlines: a cell (exact simulation, or
// the sampled planning+windows section) running longer than soft gets
// a goroutine-dump diagnostic logged; one exceeding hard is canceled
// with a *WatchdogError. Zero disables either deadline; both default
// to disabled — simulation cost varies too much across workloads for
// a universal limit, so this is operator policy, not engine policy.
func (r *Runner) SetWatchdog(soft, hard time.Duration) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	r.watchSoft, r.watchHard = soft, hard
}

func (r *Runner) logf(format string, args ...any) {
	r.rmu.Lock()
	fn := r.logFn
	r.rmu.Unlock()
	if fn != nil {
		fn(format, args...)
	}
}

// retryPolicy snapshots the retry configuration.
func (r *Runner) retryPolicy() (attempts int, base time.Duration) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	return r.retryAttempts, r.retryBase
}

// jitter returns a seeded pseudo-random duration in [0, d) — seeded so
// chaos runs replay, jittered so retry storms decorrelate.
func (r *Runner) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.rmu.Lock()
	r.jrng += 0x9e3779b97f4a7c15
	z := r.jrng
	r.rmu.Unlock()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return time.Duration(z % uint64(d))
}

// storeFor returns the store to use for this operation: the attached
// store normally, nil while degraded. A degraded engine probes at most
// once per probe interval (whichever caller wins the CAS pays the
// probe) and re-attaches when the probe succeeds — ENOSPC clears when
// an operator frees space, EMFILE when load drops.
func (r *Runner) storeFor() *store.Store {
	st := r.store.Load()
	if st == nil {
		return nil
	}
	if !r.degraded.Load() {
		return st
	}
	r.rmu.Lock()
	every := r.probeEvery
	r.rmu.Unlock()
	now := time.Now().UnixNano()
	next := r.probeAt.Load()
	if now < next || !r.probeAt.CompareAndSwap(next, now+every.Nanoseconds()) {
		return nil
	}
	if err := st.Probe(); err != nil {
		r.logf("exper: store still degraded (probe: %v)", err)
		return nil
	}
	if r.degraded.CompareAndSwap(true, false) {
		r.logf("exper: store probe succeeded; re-attached persistent store")
	}
	return st
}

// degrade detaches the store into memory-only mode (once; later calls
// while already degraded are no-ops) and schedules the first probe.
func (r *Runner) degrade(err error) {
	if !r.degraded.CompareAndSwap(false, true) {
		return
	}
	r.storeDegrades.Add(1)
	r.rmu.Lock()
	every := r.probeEvery
	r.rmu.Unlock()
	r.probeAt.Store(time.Now().Add(every).UnixNano())
	r.logf("exper: store degraded to memory-only caching (%s: %v); will probe every %s to re-attach",
		store.Classify(err), err, every)
}

// storeIO runs one store operation under the retry policy: transient
// failures retry with exponential backoff + jitter until the budget is
// spent, then degrade the engine; fatal failures degrade immediately.
// Not-found and corrupt come back untouched — they are answers, not
// trouble. The returned error is the last one observed.
func (r *Runner) storeIO(ctx context.Context, f func() error) error {
	attempts, base := r.retryPolicy()
	var err error
	for i := 0; ; i++ {
		err = f()
		switch store.Classify(err) {
		case store.ClassNone, store.ClassNotFound, store.ClassCorrupt:
			return err
		case store.ClassTransient:
			if i+1 >= attempts {
				r.degrade(err)
				return err
			}
			r.storeRetries.Add(1)
			d := base << i
			t := time.NewTimer(d + r.jitter(d))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		default:
			r.degrade(err)
			return err
		}
	}
}

// storeRead consults the store (respecting degraded mode) for key k,
// decoding into out, with transient retries. It reports a plain hit or
// miss; every failure mode — detached, degraded, missing, corrupt,
// exhausted retries — is a miss, because the layer above can always
// recompute.
func (r *Runner) storeRead(ctx context.Context, k store.Key, out any) bool {
	st := r.storeFor()
	if st == nil {
		return false
	}
	return r.storeIO(ctx, func() error { return st.Get(k, out) }) == nil
}

// storeWrite persists v under k (respecting degraded mode) with
// transient retries, reporting whether the entry is durable. Failures
// cost durability, not correctness.
func (r *Runner) storeWrite(ctx context.Context, k store.Key, v any) bool {
	if k.Kind == "" {
		return false
	}
	st := r.storeFor()
	if st == nil {
		return false
	}
	return r.storeIO(ctx, func() error { return st.Put(k, v) }) == nil
}

// protect wraps a cache leader body so a panic anywhere under
// it — pipeline invariant violations, emulator bugs, injected faults —
// becomes a memoized *PanicError for this one cell instead of a dead
// process. It also counts every recovered panic that surfaces through
// this leader, including ones contained deeper down (a window worker's
// recovered panic arrives here as an error, not a panic).
func protect[V any](r *Runner, op string, do func(context.Context) (V, error)) func(context.Context) (V, error) {
	return func(ctx context.Context) (v V, err error) {
		defer func() {
			if pe := fault.AsPanic(err); pe != nil {
				r.panicsRecovered.Add(1)
				r.logf("exper: recovered panic in %s: %v\n%s", pe.Op, pe.Value, pe.Stack)
			}
		}()
		defer fault.CatchPanic(&err, op)
		return do(ctx)
	}
}

// watchCell arms the configured watchdog deadlines around one cell:
// the returned context is what the cell must run under, and stop must
// be deferred. With no deadlines configured both are pass-throughs.
func (r *Runner) watchCell(ctx context.Context, op string) (context.Context, func()) {
	r.rmu.Lock()
	soft, hard := r.watchSoft, r.watchHard
	r.rmu.Unlock()
	if soft <= 0 && hard <= 0 {
		return ctx, func() {}
	}
	wctx, cancel := context.WithCancelCause(ctx)
	var timers []*time.Timer
	if soft > 0 {
		timers = append(timers, time.AfterFunc(soft, func() {
			r.watchdogStalls.Add(1)
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			r.logf("exper: watchdog: %s still running after %s; goroutine dump:\n%s", op, soft, buf[:n])
		}))
	}
	if hard > 0 {
		timers = append(timers, time.AfterFunc(hard, func() {
			r.watchdogKills.Add(1)
			r.logf("exper: watchdog: %s exceeded hard deadline %s; canceling", op, hard)
			cancel(&WatchdogError{Op: op, Limit: hard})
		}))
	}
	stop := func() {
		for _, t := range timers {
			t.Stop()
		}
		cancel(nil)
	}
	return wctx, stop
}

// watchdogErr rewrites a context-shaped cell failure into the
// *WatchdogError that actually caused it, when the cell's watched
// context was hard-killed. Ordinary cancellations pass through
// unchanged (and keep their leader-handoff semantics).
func watchdogErr(wctx context.Context, err error) error {
	if err == nil || !ctxErr(err) {
		return err
	}
	var we *WatchdogError
	if cause := context.Cause(wctx); errors.As(cause, &we) {
		return we
	}
	return err
}
