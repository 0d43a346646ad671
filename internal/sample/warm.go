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
	"sync/atomic"

	"repro/internal/emu"
	"repro/internal/memo"
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

// warmMemo is a plan's shared-warming memo: the recorded warming of
// each (geometry, window) run so far. It is a field of the plan, so it
// lives and dies with it; the plan codec ignores it.
type warmMemo = memo.Cache[warmKey, *warmStart]

func newWarmMemo() *warmMemo { return memo.New[warmKey, *warmStart](nil, nil) }

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

// warming returns the plan's warming memo; nil (every window warms
// privately) under privateWarming or for a plan that was neither built
// nor decoded.
func (p *Plan) warming() *warmMemo {
	if privateWarming.Load() {
		return nil
	}
	return p.warm
}

// Warmed returns how many window warmings plan's shared-warming memo
// has recorded: one per (window, front-end geometry) run so far. Each
// adds its delta and checkpoint to Bytes, so a cache that charged the
// plan's size should re-size it when Warmed moves.
func (p *Plan) Warmed() int {
	n := 0
	if p.warm != nil {
		p.warm.Range(func(warmKey, *warmStart) { n++ })
	}
	return n
}

// warm returns a warmer and a machine standing at pw.Start — pw is the
// plan's window idx — ready for Warmer.Seed, or a nil machine when the
// program halts before the window starts. The first caller for
// (geometry, window) warms and records its state in wm; concurrent
// callers wait for it, later ones resume the record. A leader that is
// canceled or panics vacates its slot, and a waiter takes over, so a
// failure never poisons the memo. A nil memo warms privately.
func warm(ctx context.Context, wm *warmMemo, cfg pipeline.Config, prog *emu.Program, pw PlanWindow, idx int) (w *pipeline.Warmer, m *emu.Machine, err error) {
	if wm == nil {
		return warmPrivate(ctx, cfg, prog, pw)
	}
	ws, leader, err := wm.Get(ctx, warmKey{cfg.FrontKey(), idx}, func(ctx context.Context) (*warmStart, error) {
		if w, m, err = warmPrivate(ctx, cfg, prog, pw); err != nil {
			return nil, err
		}
		warmBuilds.Add(1)
		if m == nil {
			return &warmStart{}, nil
		}
		return &warmStart{delta: w.Delta(), ck: m.Snapshot()}, nil
	})
	if err != nil || leader {
		return w, m, err
	}
	warmHits.Add(1)
	if ws.ck == nil {
		return nil, nil, nil
	}
	if w, err = pipeline.NewWarmerFrom(cfg, ws.delta); err != nil {
		return nil, nil, err
	}
	return w, emu.NewAt(prog, ws.ck), nil
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
