package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/regfile"
)

// Config describes one simulated machine. Use DefaultConfig and mutate.
type Config struct {
	// Name labels results.
	Name string

	// FetchWidth is instructions fetched/decoded/renamed per cycle
	// (Table 2: 4; the "execution bound" model of §5.3 uses 8).
	FetchWidth int
	// RetireWidth is instructions retired per cycle (Table 2: 6).
	RetireWidth int
	// WindowSize is the maximum number of in-flight instructions
	// (Table 2: 160).
	WindowSize int
	// SchedEntries is the capacity of each of the four schedulers
	// (Table 2: 8; the "fetch bound" model of §5.3 uses 16).
	SchedEntries int

	// Execution units (Table 2).
	NumSimpleALU  int // 4
	NumComplexALU int // 1
	NumFPALU      int // 2
	NumAgen       int // 2
	DCachePorts   int // 2

	// PRegs sizes the physical register file.
	PRegs int

	// Pipeline depth decomposition. The baseline branch-resolution loop
	// is FrontLat + RenameLat + DispatchLat + SchedMinLat + RegReadLat +
	// 1 (execute) + RedirectLat = 20 cycles with the defaults.
	FrontLat    uint64 // fetch + decode stages (6)
	RenameLat   uint64 // baseline rename stages (2)
	OptStages   uint64 // extra rename stages when the optimizer is on (2)
	DispatchLat uint64 // rename -> scheduler (1)
	SchedMinLat uint64 // minimum cycles in the scheduler before issue (2)
	RegReadLat  uint64 // issue -> execute (3)
	RedirectLat uint64 // resolve -> fetch restart (5)

	// FeedbackDelay is the value-feedback transmission latency from the
	// execution units back to the optimizer tables (§6.4; default 1).
	FeedbackDelay uint64

	// MaxInsts bounds the simulation (0 = run to HALT).
	MaxInsts uint64

	// Optimizer, predictor and cache configurations.
	Opt    core.Config
	BPred  bpred.Config
	Caches cache.HierarchyConfig
}

// DefaultConfig is the paper's balanced default machine (Table 2) with
// continuous optimization enabled. Use Baseline() for the comparison
// machine.
func DefaultConfig() Config {
	return Config{
		Name:          "default+opt",
		FetchWidth:    4,
		RetireWidth:   6,
		WindowSize:    160,
		SchedEntries:  8,
		NumSimpleALU:  4,
		NumComplexALU: 1,
		NumFPALU:      2,
		NumAgen:       2,
		DCachePorts:   2,
		PRegs:         512,
		FrontLat:      6,
		RenameLat:     2,
		OptStages:     2,
		DispatchLat:   1,
		SchedMinLat:   2,
		RegReadLat:    3,
		RedirectLat:   5,
		FeedbackDelay: 1,
		Opt:           core.DefaultConfig(),
		BPred:         bpred.DefaultConfig(),
		Caches:        cache.DefaultHierarchyConfig(),
	}
}

// Normalize returns the config to simulate: the zero value maps to
// DefaultConfig, anything else is returned unchanged. This is the one
// sanctioned "empty config means the default machine" rule; callers must
// not guess emptiness from individual fields (a partially filled config
// is a configuration error that Validate reports, not a request for
// defaults).
func (c Config) Normalize() Config {
	if c == (Config{}) {
		return DefaultConfig()
	}
	return c
}

// Key returns a canonical content hash of the machine configuration.
// Name is a display label and is excluded: two configs that describe the
// same machine hash identically regardless of what they are called, so
// result caches can deduplicate simulations across experiments. The key
// is stable within a process run and across runs of the same build.
func (c Config) Key() string {
	c.Name = ""
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
	return hex.EncodeToString(sum[:8])
}

// Baseline returns c with the optimizer disabled (and without its extra
// rename stages) — the paper's comparison machine.
func (c Config) Baseline() Config {
	c.Name = "baseline"
	c.Opt.Mode = core.ModeBaseline
	return c
}

// WithMode returns c with the optimizer mode switched.
func (c Config) WithMode(m core.Mode) Config {
	c.Opt.Mode = m
	return c
}

// totalRenameLat is the rename latency including optimizer stages.
func (c *Config) totalRenameLat() uint64 {
	if c.Opt.Mode == core.ModeBaseline {
		return c.RenameLat
	}
	return c.RenameLat + c.OptStages
}

// MinBranchLoop returns the minimum fetch-to-refetch latency of a
// mispredicted branch resolved at execute — 20 cycles for the baseline
// defaults, matching Table 2.
func (c *Config) MinBranchLoop() uint64 {
	return c.FrontLat + c.totalRenameLat() + c.DispatchLat + c.SchedMinLat +
		c.RegReadLat + 1 + c.RedirectLat
}

// Allocation caps. A session sizes its event wheels from the config's
// latencies, its queues and op arena from its widths and stage depths,
// and its tables from the register, cache and predictor sizes, so
// Validate bounds every field that feeds a size: whatever a config (or
// a served sweep spec) asks for, one session allocates at most a few
// tens of MiB. The paper's machines sit far inside every cap.
const (
	// MaxLatency bounds every latency and stage depth, in cycles. It
	// keeps the event-wheel horizon (see shape) within 2^15 slots.
	MaxLatency = 4096
	// MaxInFlight bounds the ops a session's queues can hold — the op
	// arena it presizes (about 200 bytes an op).
	MaxInFlight = 1 << 16
	// MaxPredEntries bounds the BTB and the return-address stack.
	MaxPredEntries = 1 << 20
)

// Validate reports configuration errors that would make the machine
// model meaningless or deadlock-prone, or make a session allocate
// beyond the caps above. The error names the offending field by its
// sweep-spec path (e.g. "Caches.MemLatency"). New rejects an invalid
// config; callers building custom configurations can check explicitly.
func (c *Config) Validate() error {
	lats := [...]struct {
		name string
		v    uint64
	}{
		{"FrontLat", c.FrontLat}, {"RenameLat", c.RenameLat}, {"OptStages", c.OptStages},
		{"DispatchLat", c.DispatchLat}, {"SchedMinLat", c.SchedMinLat}, {"RegReadLat", c.RegReadLat},
		{"RedirectLat", c.RedirectLat}, {"FeedbackDelay", c.FeedbackDelay},
		{"Caches.L1I.Latency", c.Caches.L1I.Latency}, {"Caches.L1D.Latency", c.Caches.L1D.Latency},
		{"Caches.L2.Latency", c.Caches.L2.Latency}, {"Caches.MemLatency", c.Caches.MemLatency},
	}
	for _, l := range lats {
		if l.v > MaxLatency {
			return fmt.Errorf("pipeline: %s %d exceeds the %d-cycle latency cap", l.name, l.v, MaxLatency)
		}
	}
	for _, lv := range [...]struct {
		name string
		cfg  cache.Config
	}{{"L1I", c.Caches.L1I}, {"L1D", c.Caches.L1D}, {"L2", c.Caches.L2}} {
		if err := lv.cfg.Validate(); err != nil {
			return fmt.Errorf("pipeline: Caches.%s.%v", lv.name, err)
		}
	}
	switch {
	case c.PRegs > regfile.MaxRegs:
		return fmt.Errorf("pipeline: PRegs %d exceeds the register file's %d-register limit", c.PRegs, regfile.MaxRegs)
	case c.WindowSize > regfile.MaxRegs:
		return fmt.Errorf("pipeline: WindowSize %d exceeds %d", c.WindowSize, regfile.MaxRegs)
	case c.Opt.MBCEntries < 0 || c.Opt.MBCEntries > regfile.MaxRegs:
		return fmt.Errorf("pipeline: Opt.MBCEntries %d outside [0, %d]", c.Opt.MBCEntries, regfile.MaxRegs)
	case c.BPred.BTBEntries > MaxPredEntries:
		return fmt.Errorf("pipeline: BPred.BTBEntries %d exceeds %d", c.BPred.BTBEntries, MaxPredEntries)
	case c.BPred.RASEntries > MaxPredEntries:
		return fmt.Errorf("pipeline: BPred.RASEntries %d exceeds %d", c.BPred.RASEntries, MaxPredEntries)
	}
	switch {
	case c.FetchWidth <= 0:
		return fmt.Errorf("pipeline: FetchWidth %d must be positive", c.FetchWidth)
	case c.RetireWidth <= 0:
		return fmt.Errorf("pipeline: RetireWidth %d must be positive", c.RetireWidth)
	case c.WindowSize < c.FetchWidth:
		return fmt.Errorf("pipeline: WindowSize %d smaller than FetchWidth %d", c.WindowSize, c.FetchWidth)
	case c.SchedEntries <= 0:
		return fmt.Errorf("pipeline: SchedEntries %d must be positive", c.SchedEntries)
	case c.SchedEntries > c.WindowSize:
		return fmt.Errorf("pipeline: SchedEntries %d exceeds WindowSize %d", c.SchedEntries, c.WindowSize)
	case c.NumSimpleALU <= 0 || c.NumAgen <= 0 || c.DCachePorts <= 0:
		return fmt.Errorf("pipeline: execution units must be positive (simple=%d agen=%d ports=%d)",
			c.NumSimpleALU, c.NumAgen, c.DCachePorts)
	case c.NumComplexALU <= 0 || c.NumFPALU <= 0:
		return fmt.Errorf("pipeline: complex/FP units must be positive (complex=%d fp=%d)",
			c.NumComplexALU, c.NumFPALU)
	case c.RegReadLat == 0:
		return fmt.Errorf("pipeline: RegReadLat must be at least 1")
	}
	// The register file must cover the architectural state, the window's
	// worst-case in-flight destinations, and slack for table-extended
	// lifetimes (RAT symbolic bases + MBC entries).
	need := 64 + c.WindowSize + c.Opt.MBCEntries + 64
	if c.PRegs < need {
		return fmt.Errorf("pipeline: PRegs %d too small; need >= %d for a %d-entry window and %d-entry MBC",
			c.PRegs, need, c.WindowSize, c.Opt.MBCEntries)
	}
	if ops := c.shape().ops; ops > MaxInFlight {
		return fmt.Errorf("pipeline: FetchWidth %d over the front-end depth (FrontLat, RenameLat, OptStages, DispatchLat) holds %d in-flight ops; at most %d are allowed",
			c.FetchWidth, ops, MaxInFlight)
	}
	return nil
}

// backEndShape is what sizes a session's back-end beyond the Config
// fields it reads directly.
type backEndShape struct {
	fetchCap int // fetch queue capacity
	renQCap  int // rename queue capacity
	horizon  int // event-wheel horizon in cycles
	ops      int // op arena capacity: every op the queues can hold
}

// shape derives the back-end sizes of a session of c. The fetch and
// rename queues hold FetchWidth ops per cycle of their stages plus two
// cycles of slack. The arena covers every queue position an op can
// occupy (window ops include the scheduler entries) plus one fetch
// bundle. The event-wheel horizon must exceed the furthest ahead any
// event is ever scheduled: a completion lands at most RegReadLat plus
// the worst-case execution latency ahead (a load missing every cache
// level plus address generation, or the 20-cycle dividers), and a
// feedback event FeedbackDelay beyond that. Call on a config whose
// latencies, widths and window Validate has bounded.
func (c *Config) shape() backEndShape {
	maxExec := c.Caches.L1D.Latency + c.Caches.L2.Latency + c.Caches.MemLatency + 1
	if maxExec < 20 {
		maxExec = 20
	}
	sh := backEndShape{
		fetchCap: c.FetchWidth * int(c.FrontLat+2),
		renQCap:  c.FetchWidth * int(c.totalRenameLat()+c.DispatchLat+2),
		horizon:  int(c.RegReadLat+maxExec+c.FeedbackDelay) + 2,
	}
	sh.ops = sh.fetchCap + sh.renQCap + c.WindowSize + c.FetchWidth + 1
	return sh
}
