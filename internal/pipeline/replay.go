package pipeline

import (
	"fmt"

	"repro/internal/emu"
)

// Source produces the dynamic instruction stream the fetch stage
// consumes — the only seam between architectural execution and timing.
// Two implementations exist: *emu.Machine (live emulation, the default)
// and *emu.TraceReader (replay of a pre-recorded stream). The timing
// model reads nothing from the architectural side but this stream, so
// a replay session is cycle-for-cycle identical to a live one over the
// same program.
type Source interface {
	// StepInto writes the next dynamic instruction into d and reports
	// whether one was produced (false = the stream has ended).
	StepInto(d *emu.DynInst) bool
}

// NewReplay builds a session that times prog's recorded dynamic stream
// tr instead of driving a live emulator: record the architectural
// stream once (emu.Record), then time it under any number of machine
// configurations, each session replaying the shared read-only buffer
// through its own cursor. Replay is timing-identical to New over the
// same program; concurrent replay sessions over one Trace are safe (the
// trace is never written after recording). The experiment engine runs
// exact cells live; NewReplay remains for the perfbench module, whose
// traced sweep-exact pass times it.
func NewReplay(cfg Config, prog *emu.Program, tr *emu.Trace) (*Session, error) {
	if tr == nil {
		return nil, fmt.Errorf("pipeline: nil trace")
	}
	if tr.Program != prog.Name {
		return nil, fmt.Errorf("pipeline: trace of %q cannot replay program %q", tr.Program, prog.Name)
	}
	return newSession(cfg, prog, tr.NewReader(), nil)
}
