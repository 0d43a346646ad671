package pipeline

import (
	"fmt"

	"repro/internal/core"
)

// Result carries the outcome of one simulation. A Result is
// self-describing: Machine/Program label the run for humans, while
// ConfigKey (the canonical Config content hash), Program and Scale
// identify the simulation precisely enough for caches to key on.
type Result struct {
	// Machine and Program identify the run.
	Machine string
	Program string

	// ConfigKey is Config.Key() of the simulated machine — the canonical
	// content hash that identifies the configuration independent of its
	// display name.
	ConfigKey string

	// Scale is the workload iteration scale the program was generated at
	// (0 when the program did not come from the benchmark registry; the
	// experiment engine stamps the effective scale).
	Scale int

	// StartInst is the dynamic instruction number the session was seeded
	// at (0 for a run from the program entry; NewFromCheckpoint sets it
	// to the checkpoint's instruction count).
	StartInst uint64

	// Sampled marks a Result that is a statistical estimate assembled
	// from sampled detailed windows (internal/sample) rather than a
	// cycle-exact whole-run simulation. Cycles is then the estimated
	// whole-run cycle count and the event counters are extrapolated.
	Sampled bool

	// Cycles and Retired give raw performance; IPC() combines them.
	Cycles  uint64
	Retired uint64

	// Branch events. Mispredicted counts conditional/computed-target
	// mispredictions (the expensive kind); EarlyRecovered of those were
	// resolved in the optimizer, LateRecovered at execute.
	// DecodeRedirects are cheap static-target BTB misses.
	Mispredicted    uint64
	EarlyRecovered  uint64
	LateRecovered   uint64
	DecodeRedirects uint64

	// Stall diagnostics.
	WindowStalls uint64
	SchedStalls  uint64
	RegStalls    uint64

	// AvgWindowOcc and AvgSchedOcc are mean occupancies (instructions)
	// of the 160-entry window and the four schedulers combined — useful
	// for diagnosing whether a machine is fetch- or execution-bound
	// (§5.3).
	AvgWindowOcc float64
	AvgSchedOcc  float64

	// Opt is the optimizer's event counters.
	Opt core.Stats

	// Substrate stats.
	BPLookups   uint64
	L1DMissRate float64
	L1IMissRate float64

	// Intervals is the run's telemetry time series, populated when
	// RunOpts.Interval > 0: one record per Interval cycles (the last may
	// be shorter). Summing the interval counters field-wise reproduces
	// the run totals above.
	Intervals []IntervalStats

	// Truncated reports why the simulation stopped early (TruncNone for
	// a run that reached HALT). A truncated Result reflects the machine
	// state at the cut, not program completion.
	Truncated TruncateReason

	// Measured is the post-warmup slice of the run, populated when
	// RunOpts.WarmupRetired > 0 and the run crossed the boundary: the
	// cycles and events after the first WarmupRetired retirements. The
	// whole-run totals above still cover warmup + measured; Measured is
	// what sampled simulation aggregates.
	Measured *MeasuredWindow
}

// MeasuredWindow is the measured region of a warmup+measure run: every
// counter covers only the cycles after the RunOpts.WarmupRetired
// boundary, so WarmupCycles + Cycles equals the run's total cycles and
// WarmupRetired + Retired equals its total retirements.
type MeasuredWindow struct {
	// WarmupCycles and WarmupRetired locate the boundary: the cycle the
	// measurement opened at and the retirements before it (>= the
	// requested WarmupRetired; the retire stage drains up to RetireWidth
	// instructions in the boundary cycle).
	WarmupCycles  uint64
	WarmupRetired uint64

	// Cycles and Retired are the measured region's extent.
	Cycles  uint64
	Retired uint64

	// Branch events of the measured region (see Result).
	Mispredicted    uint64
	EarlyRecovered  uint64
	LateRecovered   uint64
	DecodeRedirects uint64

	// Opt holds the optimizer events of the measured region.
	Opt core.Stats
}

// IPC returns the measured region's retired instructions per cycle.
func (m *MeasuredWindow) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Retired) / float64(m.Cycles)
}

// CPI returns the measured region's cycles per retired instruction.
func (m *MeasuredWindow) CPI() float64 {
	if m.Retired == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Retired)
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// SpeedupOver returns base.Cycles / r.Cycles — the paper's speedup
// metric (both runs execute the same instruction count).
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// PctEarlyExecuted returns the share of the instruction stream executed
// in the optimizer (Table 3, "exec. early").
func (r *Result) PctEarlyExecuted() float64 {
	return pct(r.Opt.EarlyExecuted, r.Opt.Renamed)
}

// PctMispredRecovered returns the share of mispredicted branches
// resolved in the optimizer (Table 3, "recov. mispred. brs.").
func (r *Result) PctMispredRecovered() float64 {
	return pct(r.EarlyRecovered, r.Mispredicted)
}

// PctAddrGen returns the share of memory operations whose address was
// generated in the optimizer (Table 3, "ld/st addr. gen.").
func (r *Result) PctAddrGen() float64 {
	return pct(r.Opt.AddrKnown, r.Opt.MemOps)
}

// PctLoadsRemoved returns the share of loads converted to moves
// (Table 3, "lds removed").
func (r *Result) PctLoadsRemoved() float64 {
	return pct(r.Opt.LoadsRemoved, r.Opt.Loads)
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d insts, %d cycles, IPC %.3f", r.Program, r.Machine, r.Retired, r.Cycles, r.IPC())
}
