package pipeline_test

// Tests for checkpoint-seeded sessions and the warmup measurement
// boundary — the pipeline-side seams sampled simulation is built on.

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/pipeline"
)

func checkpointAt(t *testing.T, name string, scale int, k uint64) (*emu.Program, *emu.Checkpoint) {
	t.Helper()
	b := benchProgram(t, name)
	prog := b.Program(scale)
	m := emu.New(prog)
	if k > 0 && m.Run(k) < k {
		t.Fatalf("%s@%d shorter than %d instructions", name, scale, k)
	}
	return prog, m.Snapshot()
}

// TestCheckpointAtEntryMatchesFresh pins that seeding from an
// entry-point checkpoint is exactly a fresh session: same cycles, same
// retirements, same optimizer events.
func TestCheckpointAtEntryMatchesFresh(t *testing.T) {
	prog, ck := checkpointAt(t, "untst", 1, 0)

	fresh, err := pipeline.New(pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	seeded, err := pipeline.NewFromCheckpoint(pipeline.DefaultConfig(), prog, ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := seeded.Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Retired != want.Retired || got.Opt != want.Opt {
		t.Errorf("entry-checkpoint session differs from fresh: %v vs %v", got, want)
	}
	if got.StartInst != 0 {
		t.Errorf("StartInst = %d, want 0", got.StartInst)
	}
}

// TestCheckpointSessionRetiresRemainder seeds mid-run and requires the
// detailed model to retire exactly the instructions after the
// checkpoint — the trace-driven design guarantees no architectural
// divergence is possible.
func TestCheckpointSessionRetiresRemainder(t *testing.T) {
	const k = 1000
	b := benchProgram(t, "mcf")
	prog := b.Program(1)
	total := emu.RunProgram(prog, 0).InstCount()
	prog2, ck := checkpointAt(t, "mcf", 1, k)

	for _, cfg := range []pipeline.Config{pipeline.DefaultConfig(), pipeline.DefaultConfig().Baseline()} {
		s, err := pipeline.NewFromCheckpoint(cfg, prog2, ck)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), pipeline.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Retired != total-k {
			t.Errorf("%s: retired %d, want %d (total %d - checkpoint %d)",
				cfg.Name, res.Retired, total-k, total, k)
		}
		if res.StartInst != k {
			t.Errorf("%s: StartInst = %d, want %d", cfg.Name, res.StartInst, k)
		}
		if live := s.LiveRegs(); live != 0 {
			t.Errorf("%s: %d physical registers leaked", cfg.Name, live)
		}
	}
}

// TestCheckpointRejects pins the guard rails.
func TestCheckpointRejects(t *testing.T) {
	prog, _ := checkpointAt(t, "mcf", 1, 10)
	if _, err := pipeline.NewFromCheckpoint(pipeline.DefaultConfig(), prog, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	other := benchProgram(t, "untst").Program(1)
	ck := emu.New(other).Snapshot()
	if _, err := pipeline.NewFromCheckpoint(pipeline.DefaultConfig(), prog, ck); err == nil {
		t.Error("foreign checkpoint accepted")
	}
	m := emu.New(prog)
	m.Run(0) // to HALT
	if _, err := pipeline.NewFromCheckpoint(pipeline.DefaultConfig(), prog, m.Snapshot()); err == nil {
		t.Error("halted checkpoint accepted")
	}
}

// TestWarmupMeasuredWindow checks the measurement boundary: warmup +
// measured must tile the run exactly, for both a truncated window run
// and a run to completion.
func TestWarmupMeasuredWindow(t *testing.T) {
	const warm, meas = 500, 1000
	cases := []struct {
		name string
		opts pipeline.RunOpts
	}{
		{"truncated", pipeline.RunOpts{MaxRetired: warm + meas, WarmupRetired: warm}},
		{"to-completion", pipeline.RunOpts{WarmupRetired: warm}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := newSession(t, "mcf", 1).Run(context.Background(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			mw := res.Measured
			if mw == nil {
				t.Fatal("Measured nil after crossing the warmup boundary")
			}
			if mw.WarmupRetired < warm {
				t.Errorf("WarmupRetired = %d, want >= %d", mw.WarmupRetired, warm)
			}
			w := uint64(pipeline.DefaultConfig().RetireWidth)
			if mw.WarmupRetired >= warm+w {
				t.Errorf("WarmupRetired = %d, want < %d (boundary drains at most one retire bundle)", mw.WarmupRetired, warm+w)
			}
			if mw.WarmupCycles+mw.Cycles != res.Cycles {
				t.Errorf("warmup %d + measured %d cycles != total %d", mw.WarmupCycles, mw.Cycles, res.Cycles)
			}
			if mw.WarmupRetired+mw.Retired != res.Retired {
				t.Errorf("warmup %d + measured %d retired != total %d", mw.WarmupRetired, mw.Retired, res.Retired)
			}
			// The measured region is a strict slice of the run: the
			// warmup prefix renamed at least its own retirements, so
			// measured optimizer events must come in under the totals.
			if mw.Opt.Renamed >= res.Opt.Renamed {
				t.Errorf("measured Renamed %d not below run total %d", mw.Opt.Renamed, res.Opt.Renamed)
			}
		})
	}
}

// TestWarmupNotReached: a run that ends before the boundary reports no
// measured window.
func TestWarmupNotReached(t *testing.T) {
	res, err := newSession(t, "untst", 1).Run(context.Background(), pipeline.RunOpts{
		MaxRetired:    100,
		WarmupRetired: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured != nil {
		t.Errorf("Measured = %+v on a run that never crossed the boundary", res.Measured)
	}
}

// TestWarmedSeedingDoesNotChangeRetirement pins that handing warmed
// cache/predictor state and the live machine to a session affects timing only:
// the retired instruction stream stays the oracle's.
func TestWarmedSeedingDoesNotChangeRetirement(t *testing.T) {
	const k = 800
	b := benchProgram(t, "gcc")
	prog := b.Program(1)
	total := emu.RunProgram(prog, 0).InstCount()

	cfg := pipeline.DefaultConfig()
	w := pipeline.NewWarmer(cfg)
	m := emu.New(prog)
	w.Warm(m, k)
	ck := m.Snapshot()

	s, err := w.Seed(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != total-k {
		t.Errorf("warmed session retired %d, want %d", res.Retired, total-k)
	}

	cold, err := pipeline.NewFromCheckpoint(cfg, prog, ck)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.Retired != res.Retired {
		t.Errorf("cold (%d) and warmed (%d) sessions retired different counts", coldRes.Retired, res.Retired)
	}
	if coldRes.Cycles < res.Cycles {
		t.Logf("note: cold run %d cycles, warmed %d (warming usually helps)", coldRes.Cycles, res.Cycles)
	}
}
