package sample

// Shared functional warming. A window's warmed front-end depends only
// on the plan window (the checkpoint warming starts from and the
// stretch it observes) and on the front-end geometry
// (pipeline.FrontKey): the paper's sensitivity sweeps vary optimizer
// knobs over one cache and predictor geometry, so every machine of a
// sweep would warm each window to the same state. The first window run
// for a geometry records its warmed front-end as a sparse delta plus a
// checkpoint at the window start; every later machine of that geometry
// applies the delta to a reset pooled front-end and resumes the
// checkpoint, skipping the warming pass. Warmed state is reused only
// for an identical geometry, so results are byte-identical to private
// warming (the live-point idea of TurboSMARTS, Wenisch et al.,
// SIGMETRICS 2005, restricted to exact reuse).

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// warmStart is one window's functional warming under one front-end
// geometry: the warmed front-end and the machine at the window start.
// A nil ck means the program halted before the window started.
type warmStart struct {
	delta *pipeline.WarmDelta
	ck    *emu.Checkpoint
}

// warmKey names a window (by its position in the plan) warmed under one
// geometry.
type warmKey struct {
	front  pipeline.FrontKey
	window int
}

// warmSlot is one memo slot. The leader that created it sets ws (nil on
// failure) and closes done; waiters block on done.
type warmSlot struct {
	done chan struct{}
	ws   *warmStart
}

// planWarm is the warming memo of one plan.
type planWarm struct {
	mu       sync.Mutex
	slots    map[warmKey]*warmSlot
	recorded int // slots holding a recorded warming
}

// planWarms maps each live plan (weakly, so the memo never keeps a plan
// alive) to its *planWarm. A cleanup drops the entry when the plan is
// collected; the memo lives outside Plan so the plan stays a plain,
// serializable value.
var planWarms sync.Map

// warmBuilds and warmHits count windows warmed by a pass of their own
// and windows that reused another machine's warming.
var warmBuilds, warmHits atomic.Uint64

// WarmStats reports the process-wide shared-warming counters: Builds is
// the windows whose warming ran (each records its state for reuse),
// Hits the windows that resumed recorded warm state instead.
type WarmStats struct {
	Builds uint64
	Hits   uint64
}

// Warming returns the process-wide shared-warming counters.
func Warming() WarmStats {
	return WarmStats{Builds: warmBuilds.Load(), Hits: warmHits.Load()}
}

// privateWarming, when set, makes every window warm privately instead
// of sharing recorded warming: the reference path the shared-warming
// equivalence test compares against.
var privateWarming atomic.Bool

// warmMemo returns plan's warming memo, creating it on first use; nil
// (every window warms privately) under privateWarming.
func warmMemo(plan *Plan) *planWarm {
	if privateWarming.Load() {
		return nil
	}
	if pm := memoOf(plan); pm != nil {
		return pm
	}
	k := weak.Make(plan)
	v, loaded := planWarms.LoadOrStore(k, &planWarm{slots: map[warmKey]*warmSlot{}})
	if !loaded {
		runtime.AddCleanup(plan, func(k weak.Pointer[Plan]) { planWarms.Delete(k) }, k)
	}
	return v.(*planWarm)
}

// memoOf returns plan's warming memo, or nil if it has none.
func memoOf(plan *Plan) *planWarm {
	if v, ok := planWarms.Load(weak.Make(plan)); ok {
		return v.(*planWarm)
	}
	return nil
}

// Warmed returns how many window warmings plan's shared-warming memo
// has recorded: one per (window, front-end geometry) run so far. Each
// adds its delta and checkpoint to Bytes, so a cache that charged the
// plan's size should re-size it when Warmed moves.
func (p *Plan) Warmed() int {
	pm := memoOf(p)
	if pm == nil {
		return 0
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.recorded
}

// footprint returns the bytes of the memo's recorded deltas and
// checkpoint headers, and appends each recorded checkpoint's memory
// image to mems (they share most pages with the plan's own).
func (pm *planWarm) footprint(mems []*mem.Memory) (uint64, []*mem.Memory) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var n uint64
	for _, slot := range pm.slots {
		if ws := slot.ws; ws != nil && ws.ck != nil {
			n += ckOverhead + ws.delta.Bytes()
			mems = append(mems, ws.ck.Mem)
		}
	}
	return n, mems
}

// warm returns a warmer and a machine standing at pw.Start — pw is the
// plan's window idx — ready for
// Warmer.Seed, or a nil machine when the program halts before the
// window starts. The first caller for (geometry, window) warms and
// records its state; concurrent callers wait for it, later ones resume
// the record. A leader that fails — canceled, or panicking — vacates
// its slot before waking the waiters, and one of them takes over, so a
// failure never poisons the memo. A nil memo warms privately.
func (pm *planWarm) warm(ctx context.Context, cfg pipeline.Config, prog *emu.Program, pw PlanWindow, idx int) (*pipeline.Warmer, *emu.Machine, error) {
	if pm == nil {
		return warmPrivate(ctx, cfg, prog, pw)
	}
	key := warmKey{cfg.FrontKey(), idx}
	for {
		pm.mu.Lock()
		slot, ok := pm.slots[key]
		if !ok {
			slot = &warmSlot{done: make(chan struct{})}
			pm.slots[key] = slot
		}
		pm.mu.Unlock()
		if !ok {
			return pm.lead(ctx, cfg, prog, pw, key, slot)
		}
		select {
		case <-slot.done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		ws := slot.ws
		if ws == nil {
			continue // the leader failed and vacated the slot
		}
		warmHits.Add(1)
		if ws.ck == nil {
			return nil, nil, nil
		}
		w, err := pipeline.NewWarmerFrom(cfg, ws.delta)
		if err != nil {
			return nil, nil, err
		}
		return w, emu.NewAt(prog, ws.ck), nil
	}
}

// lead warms the window for slot's geometry, records the result in the
// slot and wakes the waiters — on every return path, panics included.
func (pm *planWarm) lead(ctx context.Context, cfg pipeline.Config, prog *emu.Program, pw PlanWindow, key warmKey, slot *warmSlot) (w *pipeline.Warmer, m *emu.Machine, err error) {
	var ws *warmStart
	defer func() {
		pm.mu.Lock()
		if ws == nil {
			delete(pm.slots, key)
		} else {
			pm.recorded++
		}
		slot.ws = ws
		pm.mu.Unlock()
		close(slot.done)
	}()
	w, m, err = warmPrivate(ctx, cfg, prog, pw)
	if err != nil {
		return nil, nil, err
	}
	warmBuilds.Add(1)
	if m == nil {
		ws = &warmStart{}
		return nil, nil, nil
	}
	ws = &warmStart{delta: w.Delta(), ck: m.Snapshot()}
	return w, m, nil
}

// warmPrivate resumes the emulator at pw's checkpoint and warms a
// pooled front-end (reset to cold) over the [WarmFrom, Start) stretch.
// The machine is nil when the program halts first.
func warmPrivate(ctx context.Context, cfg pipeline.Config, prog *emu.Program, pw PlanWindow) (*pipeline.Warmer, *emu.Machine, error) {
	m := emu.NewAt(prog, pw.Ck)
	w := pipeline.NewWarmer(cfg)
	if err := forward(ctx, m, pw.Start, w); err != nil {
		return nil, nil, err
	}
	if m.Halted() {
		return nil, nil, nil
	}
	return w, m, nil
}
