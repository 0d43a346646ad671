package pipeline

import (
	"fmt"
	"unsafe"

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
	// be shorter). Summing the intervals' Counts with Counts.Add
	// reproduces the run's Counts.
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

// Bytes returns the approximate resident size of the Result — the
// struct, its strings, its interval series and measured window — for
// memory budgets.
func (r *Result) Bytes() uint64 {
	n := uint64(unsafe.Sizeof(*r)) + uint64(len(r.Machine)+len(r.Program)+len(r.ConfigKey)+len(r.Truncated))
	n += uint64(cap(r.Intervals)) * uint64(unsafe.Sizeof(IntervalStats{}))
	if r.Measured != nil {
		n += uint64(unsafe.Sizeof(*r.Measured))
	}
	return n
}

// MeasuredWindow is the measured region of a warmup+measure run: its
// Counts cover only the cycles after the RunOpts.WarmupRetired
// boundary, so WarmupCycles + Cycles equals the run's total cycles and
// WarmupRetired + Retired equals its total retirements.
type MeasuredWindow struct {
	// WarmupCycles and WarmupRetired locate the boundary: the cycle the
	// measurement opened at and the retirements before it (>= the
	// requested WarmupRetired; the retire stage drains up to RetireWidth
	// instructions in the boundary cycle).
	WarmupCycles  uint64
	WarmupRetired uint64

	// Counts holds the measured region's extent and events.
	Counts
}

// Counts is the event bundle of one measured stretch of a run: a whole
// run (Result.Counts), an interval, a post-warmup or sampled window, or
// a sum of them. Every field is a monotone event count, so stretches
// Add up and snapshots Sub to the events between them.
type Counts struct {
	// Cycles and Retired give raw performance; IPC combines them.
	Cycles  uint64
	Retired uint64

	// Branch events (see Result for their meanings).
	Mispredicted    uint64
	EarlyRecovered  uint64
	LateRecovered   uint64
	DecodeRedirects uint64

	// Opt is the optimizer's event counters.
	Opt core.Stats
}

// Sub returns the field-wise difference c - prev: the events after the
// earlier snapshot prev up to c.
func (c Counts) Sub(prev Counts) Counts {
	c.Cycles -= prev.Cycles
	c.Retired -= prev.Retired
	c.Mispredicted -= prev.Mispredicted
	c.EarlyRecovered -= prev.EarlyRecovered
	c.LateRecovered -= prev.LateRecovered
	c.DecodeRedirects -= prev.DecodeRedirects
	c.Opt = c.Opt.Sub(prev.Opt)
	return c
}

// Add returns the field-wise sum c + other — the inverse of Sub.
func (c Counts) Add(other Counts) Counts {
	c.Cycles += other.Cycles
	c.Retired += other.Retired
	c.Mispredicted += other.Mispredicted
	c.EarlyRecovered += other.EarlyRecovered
	c.LateRecovered += other.LateRecovered
	c.DecodeRedirects += other.DecodeRedirects
	c.Opt = c.Opt.Add(other.Opt)
	return c
}

// IPC returns retired instructions per cycle (0 for no cycles).
func (c Counts) IPC() float64 { return ratio(c.Retired, c.Cycles) }

// CPI returns cycles per retired instruction (0 for no retirements).
func (c Counts) CPI() float64 { return ratio(c.Cycles, c.Retired) }

// PctEarlyExecuted returns the share of the instruction stream executed
// in the optimizer (Table 3, "exec. early").
func (c Counts) PctEarlyExecuted() float64 { return pct(c.Opt.EarlyExecuted, c.Opt.Renamed) }

// PctMispredRecovered returns the share of mispredicted branches
// resolved in the optimizer (Table 3, "recov. mispred. brs.").
func (c Counts) PctMispredRecovered() float64 { return pct(c.EarlyRecovered, c.Mispredicted) }

// PctAddrGen returns the share of memory operations whose address was
// generated in the optimizer (Table 3, "ld/st addr. gen.").
func (c Counts) PctAddrGen() float64 { return pct(c.Opt.AddrKnown, c.Opt.MemOps) }

// PctLoadsRemoved returns the share of loads converted to moves
// (Table 3, "lds removed").
func (c Counts) PctLoadsRemoved() float64 { return pct(c.Opt.LoadsRemoved, c.Opt.Loads) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Counts returns the run's event counts. Result keeps them flat, not
// embedded, because its JSON order (which stored results pin) puts the
// stall and occupancy fields between DecodeRedirects and Opt.
func (r *Result) Counts() Counts {
	return Counts{
		Cycles:          r.Cycles,
		Retired:         r.Retired,
		Mispredicted:    r.Mispredicted,
		EarlyRecovered:  r.EarlyRecovered,
		LateRecovered:   r.LateRecovered,
		DecodeRedirects: r.DecodeRedirects,
		Opt:             r.Opt,
	}
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 { return r.Counts().IPC() }

// SpeedupOver returns base.Cycles / r.Cycles — the paper's speedup
// metric (both runs execute the same instruction count).
func (r *Result) SpeedupOver(base *Result) float64 { return ratio(base.Cycles, r.Cycles) }

// PctEarlyExecuted is Counts.PctEarlyExecuted of the whole run.
func (r *Result) PctEarlyExecuted() float64 { return r.Counts().PctEarlyExecuted() }

// PctMispredRecovered is Counts.PctMispredRecovered of the whole run.
func (r *Result) PctMispredRecovered() float64 { return r.Counts().PctMispredRecovered() }

// PctAddrGen is Counts.PctAddrGen of the whole run.
func (r *Result) PctAddrGen() float64 { return r.Counts().PctAddrGen() }

// PctLoadsRemoved is Counts.PctLoadsRemoved of the whole run.
func (r *Result) PctLoadsRemoved() float64 { return r.Counts().PctLoadsRemoved() }

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d insts, %d cycles, IPC %.3f", r.Program, r.Machine, r.Retired, r.Cycles, r.IPC())
}
