package sample

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// Config sets the sampling regime. All units are dynamic instructions.
// The zero value is replaced by DefaultConfig; individually zero Window
// or TargetWindows fall back to their defaults (a zero Warmup in an
// otherwise non-zero Config genuinely means "no warmup", and a zero
// Period means auto-scaling).
type Config struct {
	// Period is the distance between consecutive detailed-window starts
	// (each window sits at the midpoint of its period-long stratum).
	// Zero means auto: the period is chosen per program as TotalInsts /
	// TargetWindows, floored so detailed coverage stays near or below
	// ~20% and capped so at least a handful of windows always fit —
	// short programs get proportionally denser windows than long ones,
	// which is what keeps the estimator accurate across scales.
	Period uint64
	// Warmup is the number of instructions each detailed window runs
	// before measurement begins; their statistics are discarded.
	Warmup uint64
	// Window is the number of instructions measured per detailed window.
	Window uint64
	// TargetWindows is the window count auto-period aims for (ignored
	// when Period > 0).
	TargetWindows int
	// MaxWindows caps how many detailed windows run (0 = every Period
	// boundary until the program ends).
	MaxWindows int
	// ColdStart disables functional warming: between windows the
	// emulator fast-forwards without training the caches and branch
	// predictor, so every detailed window starts cold. Fast-forward is
	// cheaper, but Warmup must then be large enough to refill those
	// structures — with warming on (the default), a few hundred
	// instructions of detailed warmup suffice.
	ColdStart bool
	// Workers bounds how many detailed windows run concurrently (0 =
	// GOMAXPROCS). Windows are independent — each resumes its own
	// checkpoint and warms cold cache/predictor state from its trailing
	// stretch — so the estimate is identical for any worker count;
	// Workers is therefore excluded from Key.
	Workers int
}

// DefaultConfig is the sampling regime the CLI's -sample flag uses:
// 500-instruction detailed windows (200 warmup + 300 measured) at an
// auto-scaled period aiming for ~16 windows per program. Functional
// warming (caches and branch predictor trained during fast-forward) is
// what makes 200 instructions of detailed warmup sufficient.
func DefaultConfig() Config {
	return Config{Warmup: 200, Window: 300, TargetWindows: 16}
}

// Normalize fills defaults: the zero Config becomes DefaultConfig, and
// a partially set Config gets the default Window (and, when Period is
// auto, TargetWindows) where zero.
func (c Config) Normalize() Config {
	// Workers is pure execution policy (it never changes the estimate),
	// so a Config that sets nothing else still means "the default
	// regime".
	z := c
	z.Workers = 0
	if z == (Config{}) {
		d := DefaultConfig()
		d.Workers = c.Workers
		return d
	}
	d := DefaultConfig()
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Period == 0 && c.TargetWindows == 0 {
		c.TargetWindows = d.TargetWindows
	}
	return c
}

// Validate rejects regimes that cannot work: windows must measure
// something, and consecutive fixed-period windows must not overlap (the
// estimator assumes disjoint measured regions).
func (c Config) Validate() error {
	if c.Window == 0 {
		return fmt.Errorf("sample: Window must be positive")
	}
	if c.Period > 0 && c.Period < c.Warmup+c.Window {
		return fmt.Errorf("sample: Period %d shorter than Warmup %d + Window %d (windows would overlap)",
			c.Period, c.Warmup, c.Window)
	}
	if c.Period == 0 && c.TargetWindows <= 0 {
		return fmt.Errorf("sample: auto period needs TargetWindows > 0")
	}
	if c.MaxWindows < 0 {
		return fmt.Errorf("sample: MaxWindows %d must be non-negative", c.MaxWindows)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sample: Workers %d must be non-negative", c.Workers)
	}
	return nil
}

// minSpacing floors the auto period at minSpacing × (Warmup + Window),
// capping detailed coverage near 1/minSpacing.
const minSpacing = 5

// warmStretchFactor bounds functional warming: each window observes
// only the warmStretchFactor × (Warmup + Window) instructions
// trailing its start into cold cache/predictor state, and everything
// before that fast-forwards raw. The stretch must cover the history
// the window-start state actually depends on (predictor history, hot
// cache lines); because windows warm independently — nothing
// accumulates across windows, which is what makes them
// order-independent and safe to run concurrently — the stretch is
// sized generously. 24 matches the measured accuracy of the old
// continuous-warming scheme (factor 6 with state accumulated across
// the whole run) on every sample-check benchmark, and its cost is
// independent of program length, so planned sampled runs still scale.
const warmStretchFactor = 24

// shortRunFactor: a program shorter than shortRunFactor × (Warmup +
// Window) is simulated exactly instead of sampled — sampling a run
// that a handful of detailed windows would cover anyway only adds
// estimation error on top of comparable cost.
const shortRunFactor = 10

// minWindowCount is the fewest windows auto-period accepts: below ~5
// samples the estimate degenerates to whichever phases the windows
// happen to hit. Short programs get a denser-than-minSpacing period to
// reach it — they are cheap, so the extra coverage costs little.
const minWindowCount = 5

// periodFor resolves the sampling period for a program of totalInsts
// dynamic instructions (0 = too short, use the exact fallback).
func (c Config) periodFor(totalInsts uint64) uint64 {
	detail := c.Warmup + c.Window
	if totalInsts < shortRunFactor*detail {
		return 0
	}
	if c.Period > 0 {
		return c.Period
	}
	p := totalInsts / uint64(c.TargetWindows)
	if min := minSpacing * detail; p < min {
		p = min
	}
	if max := totalInsts / minWindowCount; p > max {
		p = max
	}
	if p < detail {
		p = detail
	}
	return p
}

// Key returns a canonical string identifying the sampling regime, used
// (together with the machine config key) to key sampled-result caches
// so exact and sampled results never collide. Workers is excluded (it
// cannot change the estimate). The leading "2." is an estimator
// version marker: window warming became per-window (each window warms
// independently from its trailing stretch instead of accumulating
// warm state across the run), which shifts estimates slightly, so
// results persisted under the old scheme must not be returned for the
// new one.
func (c Config) Key() string {
	cold := ""
	if c.ColdStart {
		cold = ".cold"
	}
	return fmt.Sprintf("2.p%d.t%d.w%d.m%d.x%d%s", c.Period, c.TargetWindows, c.Warmup, c.Window, c.MaxWindows, cold)
}

// Window is one measured detailed window.
type Window struct {
	// Index is the window's position in the run, from 0.
	Index int
	// StartInst is the dynamic instruction the detailed session was
	// seeded at (the checkpoint position; warmup begins here).
	StartInst uint64
	// WarmupCycles and WarmupRetired cover the discarded warmup region.
	WarmupCycles  uint64
	WarmupRetired uint64
	// Cycles and Retired are the measured region's extent.
	Cycles  uint64
	Retired uint64
	// Branch events of the measured region (see pipeline.Result).
	Mispredicted    uint64
	EarlyRecovered  uint64
	LateRecovered   uint64
	DecodeRedirects uint64
	// Opt holds the optimizer events of the measured region.
	Opt core.Stats
}

// CPI returns the window's measured cycles per instruction.
func (w Window) CPI() float64 {
	if w.Retired == 0 {
		return 0
	}
	return float64(w.Cycles) / float64(w.Retired)
}

// IPC returns the window's measured instructions per cycle.
func (w Window) IPC() float64 {
	if w.Cycles == 0 {
		return 0
	}
	return float64(w.Retired) / float64(w.Cycles)
}

// Result is a sampled-simulation estimate of one (machine, program)
// run: the per-window measurements plus the derived whole-run estimate
// and its confidence interval.
type Result struct {
	// Machine, Program, ConfigKey, Scale identify the run like a
	// pipeline.Result; Sampling records the regime that produced it.
	Machine   string
	Program   string
	ConfigKey string
	Scale     int
	Sampling  Config

	// TotalInsts is the program's exact dynamic instruction count,
	// observed by the functional fast-forward crossing the whole run.
	TotalInsts uint64

	// Period is the resolved sampling period — Sampling.Period, or the
	// auto-scaled value when that was zero (0 when the exact fallback
	// ran and no sampling happened).
	Period uint64

	// Windows holds every measured detailed window in order.
	Windows []Window

	// MeasuredCycles and MeasuredRetired sum the measured regions.
	MeasuredCycles  uint64
	MeasuredRetired uint64

	// EstCycles is the whole-run cycle estimate: TotalInsts × CPI where
	// CPI = MeasuredCycles / MeasuredRetired (the retirement-weighted
	// mean of the window CPIs).
	EstCycles uint64

	// CIHalfWidth is the half-width of the 95% confidence interval on
	// the mean window CPI (0 when fewer than two windows measured), and
	// RelCI the same as a fraction of the mean CPI.
	CIHalfWidth float64
	RelCI       float64

	// ExactFallback marks a program too short to sample (it ended
	// inside the first window's warmup): the "estimate" is then a full
	// detailed run and is exact.
	ExactFallback bool
}

// Bytes returns the approximate resident size of the Result — the
// struct, its strings and its windows — for memory budgets.
func (r *Result) Bytes() uint64 {
	n := uint64(unsafe.Sizeof(*r)) + uint64(len(r.Machine)+len(r.Program)+len(r.ConfigKey))
	return n + uint64(cap(r.Windows))*uint64(unsafe.Sizeof(Window{}))
}

// EstIPC returns the estimated whole-run IPC.
func (r *Result) EstIPC() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.MeasuredRetired) / float64(r.MeasuredCycles)
}

// DetailedInsts returns how many instructions ran through the detailed
// model (warmup + measured), the cost side of the sampling trade.
func (r *Result) DetailedInsts() uint64 {
	var n uint64
	for _, w := range r.Windows {
		n += w.WarmupRetired + w.Retired
	}
	return n
}

// Coverage returns the fraction of the program simulated in detail.
func (r *Result) Coverage() float64 {
	if r.TotalInsts == 0 {
		return 0
	}
	return float64(r.DetailedInsts()) / float64(r.TotalInsts)
}

// SpeedupOver returns base.EstCycles / r.EstCycles — the sampled analog
// of pipeline.Result.SpeedupOver.
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.EstCycles == 0 {
		return 0
	}
	return float64(base.EstCycles) / float64(r.EstCycles)
}

// String summarizes the estimate.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d insts, ~%d cycles (est, %d windows, ±%.1f%% CI), IPC %.3f",
		r.Program, r.Machine, r.TotalInsts, r.EstCycles, len(r.Windows), 100*r.RelCI, r.EstIPC())
}

// Estimate renders the sampled result as a whole-run pipeline.Result
// with Sampled set: Cycles is the estimate, Retired the exact total
// instruction count, and the event counters are the window sums
// extrapolated by TotalInsts / MeasuredRetired — a uniform factor, so
// every derived ratio (Table 3's percentages, misprediction rates) is
// preserved from the measured windows. This is what lets the harness
// artifacts format sampled runs exactly like exact ones.
func (r *Result) Estimate() *pipeline.Result {
	est := &pipeline.Result{
		Machine:   r.Machine,
		Program:   r.Program,
		ConfigKey: r.ConfigKey,
		Scale:     r.Scale,
		Sampled:   true,
		Cycles:    r.EstCycles,
		Retired:   r.TotalInsts,
	}
	if r.MeasuredRetired == 0 {
		return est
	}
	var mis, early, late, dec uint64
	var opt core.Stats
	for _, w := range r.Windows {
		mis += w.Mispredicted
		early += w.EarlyRecovered
		late += w.LateRecovered
		dec += w.DecodeRedirects
		opt = opt.Add(w.Opt)
	}
	f := float64(r.TotalInsts) / float64(r.MeasuredRetired)
	scale := func(v uint64) uint64 { return uint64(math.Round(float64(v) * f)) }
	est.Mispredicted = scale(mis)
	est.EarlyRecovered = scale(early)
	est.LateRecovered = scale(late)
	est.DecodeRedirects = scale(dec)
	est.Opt = opt.Scale(f)
	return est
}

// finalize derives the whole-run estimate from the collected windows.
func (r *Result) finalize() {
	for _, w := range r.Windows {
		r.MeasuredCycles += w.Cycles
		r.MeasuredRetired += w.Retired
	}
	if r.MeasuredRetired == 0 {
		return
	}
	cpi := float64(r.MeasuredCycles) / float64(r.MeasuredRetired)
	r.EstCycles = uint64(math.Round(float64(r.TotalInsts) * cpi))
	if n := len(r.Windows); n >= 2 {
		mean := 0.0
		for _, w := range r.Windows {
			mean += w.CPI()
		}
		mean /= float64(n)
		varsum := 0.0
		for _, w := range r.Windows {
			d := w.CPI() - mean
			varsum += d * d
		}
		sd := math.Sqrt(varsum / float64(n-1))
		r.CIHalfWidth = 1.96 * sd / math.Sqrt(float64(n))
		if mean > 0 {
			r.RelCI = r.CIHalfWidth / mean
		}
	}
}

// emuChunk bounds instructions between context checks while
// fast-forwarding.
const emuChunk = 1 << 20

// forward advances the emulator to dynamic instruction target (or HALT,
// whichever comes first), checking ctx between chunks. A non-nil warmer
// is fed every instruction (functional warming, from the emulator's
// batched events); nil fast-forwards through the emulator's raw loop.
func forward(ctx context.Context, m *emu.Machine, target uint64, w *pipeline.Warmer) error {
	for !m.Halted() && m.InstCount() < target {
		n := target - m.InstCount()
		if n > emuChunk {
			n = emuChunk
		}
		if w != nil {
			w.Warm(m, n)
		} else {
			m.Run(n)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Run executes prog under cfg with sampling regime sc and returns the
// whole-run estimate. Canceling ctx aborts promptly with an error
// wrapping ctx.Err(). Sampled runs are fully deterministic: the same
// (cfg, prog, sc) always yields an identical Result.
//
// Run is BuildPlan + RunPlanned: the plan's one functional pass counts
// the program and snapshots its windows. Callers that sample the same
// program under many machine configurations should build the
// (config-independent) plan once and call RunPlanned per config — the
// whole-program fast-forward is the dominant per-run cost, and the
// plan pays it exactly once.
func Run(ctx context.Context, cfg pipeline.Config, prog *emu.Program, sc Config) (*Result, error) {
	plan, err := BuildPlan(ctx, prog, sc, 0)
	if err != nil {
		return nil, err
	}
	return RunPlanned(ctx, cfg, prog, sc, plan)
}

// PlanWindow is one scheduled detailed window: an architectural
// checkpoint at the point functional warming begins, plus the window's
// position in the stream. The checkpoint is never consumed (sessions
// share its memory image copy-on-write), so one plan serves any number
// of machine configurations, and any number of workers concurrently.
type PlanWindow struct {
	// Index is the window's position in the schedule, from 0.
	Index int
	// Start is the dynamic instruction the detailed region begins at
	// (warmup first, then the measured window).
	Start uint64
	// WarmFrom is where functional warming begins: Start minus the
	// warm stretch (floored at 0), or equal to Start under ColdStart.
	// Ck sits at WarmFrom; the gap [WarmFrom, Start) is emulated under
	// a per-window warmer before the detailed session is seeded.
	WarmFrom uint64
	// Ck is the architectural state at WarmFrom.
	Ck *emu.Checkpoint
}

// Plan is the config-independent half of a sampled run: the window
// schedule for one (program, sampling regime) pair, with an
// architectural checkpoint per window. Building it costs one raw
// fast-forward across the program — the dominant cost of a sampled run
// — so the experiment engine caches plans and replays them across every
// machine configuration of a sweep. A Plan's exported fields are
// read-only after BuildPlan, and a Plan is safe for concurrent use; the
// functional warming its runs record (warm.go) goes into an unexported
// memo the codec ignores.
//
// A Plan with Period == 0 schedules no windows: the program is too
// short to sample and RunPlanned falls back to one exact detailed run.
type Plan struct {
	// Program names the program the plan was built from; RunPlanned
	// rejects a plan for a different program.
	Program string
	// TotalInsts is the program's exact dynamic instruction count,
	// observed by the plan's pass; the windows are scheduled against it.
	TotalInsts uint64
	// Period is the resolved sampling period (0 = exact fallback).
	Period uint64
	// Windows is the schedule, in stream order.
	Windows []PlanWindow

	warm *warmMemo // shared functional warming (warm.go); nil warms privately
}

// Bytes returns the approximate resident size of the plan — the
// checkpoints' memory images dominate — for cache budget accounting.
// Consecutive checkpoints share the pages the program did not write
// between them, and a shared page counts once. The shared warming that
// runs record in the plan (see Warmed) counts too, so Bytes grows as
// new front-end geometries run it.
func (p *Plan) Bytes() uint64 {
	mems := make([]*mem.Memory, 0, len(p.Windows))
	for _, w := range p.Windows {
		if w.Ck != nil {
			mems = append(mems, w.Ck.Mem)
		}
	}
	n := uint64(len(p.Windows)) * ckOverhead
	if p.warm != nil {
		p.warm.Range(func(_ warmKey, ws *warmStart) {
			if ws.ck != nil {
				n += ckOverhead + ws.delta.Bytes()
				mems = append(mems, ws.ck.Mem)
			}
		})
	}
	return n + mem.ResidentBytes(mems...)
}

// ckOverhead approximates a checkpoint's registers and headers, for
// Plan.Bytes.
const ckOverhead = 1 << 10

// maxCheckpoints bounds the checkpoint grid BuildPlan keeps while its
// pass runs to HALT; gridSpacing is the grid's starting spacing in
// instructions. When the grid fills, every other checkpoint is dropped
// and the spacing doubles, so the retained checkpoints always span the
// run evenly and the transient memory is bounded whatever the
// program's length (at most 1.35 MiB for the built-ins at 8x their
// default scale). Each window re-forwards on average half a spacing
// from the grid, so the grid's density sets what the plan pass
// re-executes: 6.8 % of the built-ins at 8x with 256 checkpoints,
// against 33.8 % with 32.
const (
	maxCheckpoints = 256
	gridSpacing    = 1 << 14
)

// scan runs prog from its entry point to HALT, returning its dynamic
// instruction count and a grid of checkpoints: grid[i] is the state
// after i × spacing instructions, with at most maxCheckpoints kept.
// spacing starts at start.
func scan(ctx context.Context, prog *emu.Program, start uint64) (total uint64, grid []*emu.Checkpoint, spacing uint64, err error) {
	m := emu.New(prog)
	grid = []*emu.Checkpoint{m.Snapshot()}
	spacing = start
	for {
		if err := forward(ctx, m, uint64(len(grid))*spacing, nil); err != nil {
			return 0, nil, 0, err
		}
		if m.Halted() {
			return m.InstCount(), grid, spacing, nil
		}
		if len(grid) == maxCheckpoints {
			// Keep the even-indexed checkpoints: they sit on the
			// doubled spacing, and the machine stands on the next point.
			half := len(grid) / 2
			for i := 0; i < half; i++ {
				grid[i] = grid[2*i]
			}
			clear(grid[half:])
			grid = grid[:half]
			spacing *= 2
		}
		grid = append(grid, m.Snapshot())
	}
}

// BuildPlan schedules the detailed windows of prog under regime sc in
// one functional pass. The pass runs the program to HALT, counting it
// and keeping a bounded grid of checkpoints (see maxCheckpoints); then
// the windows are scheduled against the observed count, and each
// window's warm-from state is re-forwarded from the nearest grid
// checkpoint at or before it.
//
// One window per period-length stratum, centered: the detailed region
// sits at the stratum midpoint rather than its left edge, so each
// measurement represents its stratum's average behavior rather than
// over-weighting the boundary (the left-edge window of the first
// stratum would measure the program's coldest startup instructions and
// bias the whole estimate). A window whose full warmup+measure extent
// would run past the program end is dropped (its truncated measurement
// would be drain-biased).
//
// totalInsts is the caller's count of prog's dynamic instructions, or 0
// when unknown. A nonzero count that differs from the observed one is
// an error: it is stale, and scheduling against it would be wrong.
func BuildPlan(ctx context.Context, prog *emu.Program, sc Config, totalInsts uint64) (*Plan, error) {
	return buildPlan(ctx, prog, sc, totalInsts, gridSpacing)
}

// buildPlan is BuildPlan with the grid's starting spacing as a
// parameter.
func buildPlan(ctx context.Context, prog *emu.Program, sc Config, totalInsts, startSpacing uint64) (*Plan, error) {
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	total, grid, spacing, err := scan(ctx, prog, startSpacing)
	if err != nil {
		return nil, err
	}
	if totalInsts != 0 && totalInsts != total {
		return nil, fmt.Errorf("sample: %q runs %d instructions, not the stated %d", prog.Name, total, totalInsts)
	}
	plan := &Plan{Program: prog.Name, TotalInsts: total, warm: newWarmMemo()}
	period := sc.periodFor(total)
	if period == 0 {
		return plan, nil // too short to sample: exact fallback
	}
	plan.Period = period
	detail := sc.Warmup + sc.Window
	stretch := warmStretchFactor * detail
	var m *emu.Machine
	for start := (period - detail) / 2; start+detail <= total; start += period {
		if sc.MaxWindows > 0 && len(plan.Windows) >= sc.MaxWindows {
			break
		}
		warmFrom := start
		if !sc.ColdStart && start > 0 {
			if start > stretch {
				warmFrom = start - stretch
			} else {
				warmFrom = 0
			}
		}
		// Warm-from points ascend, so the machine only restarts from a
		// checkpoint that lies ahead of it.
		ck := grid[min(warmFrom/spacing, uint64(len(grid)-1))]
		if m == nil || m.InstCount() < ck.InstCount {
			m = emu.NewAt(prog, ck)
		}
		if err := forward(ctx, m, warmFrom, nil); err != nil {
			return nil, err
		}
		plan.Windows = append(plan.Windows, PlanWindow{
			Index:    len(plan.Windows),
			Start:    start,
			WarmFrom: warmFrom,
			Ck:       m.Snapshot(),
		})
	}
	// A window checkpoint stacks on the layers of the grid checkpoint
	// its machine resumed from, which would keep every grid page it
	// shadows resident after the grid is gone. Flatten each over its
	// predecessor, as decoding the plan does.
	var prev *mem.Memory
	for _, w := range plan.Windows {
		w.Ck.Mem = w.Ck.Mem.Flatten(prev)
		prev = w.Ck.Mem
	}
	return plan, nil
}

// runWindow executes one scheduled window under cfg, whose Config.Key()
// is cfgKey: warm a pooled front-end over the [WarmFrom, Start)
// stretch — or resume the warming another machine of the same
// front-end geometry recorded in wm (see warm.go) — hand the warmed
// machine and front-end straight to a detailed session, and run warmup
// + measured window. Under ColdStart the checkpoint already sits at
// Start and nothing warms. ok is false when the program halts before
// yielding a measurable window.
func runWindow(ctx context.Context, cfg pipeline.Config, cfgKey string, prog *emu.Program, sc Config, pw PlanWindow, idx int, wm *warmMemo) (w Window, ok bool, err error) {
	var s *pipeline.Session
	if pw.WarmFrom == pw.Start {
		s, err = pipeline.NewFromCheckpoint(cfg, prog, pw.Ck)
	} else {
		var warmer *pipeline.Warmer
		var m *emu.Machine
		if warmer, m, err = warm(ctx, wm, cfg, prog, pw, idx); err != nil {
			return Window{}, false, err
		}
		if m == nil {
			return Window{}, false, nil
		}
		s, err = warmer.Seed(prog, m)
	}
	if err != nil {
		return Window{}, false, err
	}
	r, err := s.Run(ctx, pipeline.RunOpts{
		MaxRetired:    sc.Warmup + sc.Window,
		WarmupRetired: sc.Warmup,
		ConfigKey:     cfgKey,
	})
	if err != nil {
		return Window{}, false, err
	}
	w, ok = windowOf(r, pw.Start, sc)
	return w, ok, nil
}

// runWindowSafe is runWindow behind a containment boundary: a worker
// that panics (or hits the sample.window fault point) fails its window
// — and through the earliest-error rule, the run — without taking the
// process or its sibling workers down. idx names the window in the
// schedule; the fault key "program#idx" lets clauses target one window
// of one workload.
func runWindowSafe(ctx context.Context, cfg pipeline.Config, cfgKey string, prog *emu.Program, sc Config, pw PlanWindow, idx int, wm *warmMemo) (w Window, ok bool, err error) {
	defer fault.CatchPanic(&err, fmt.Sprintf("sample: window %d of %s", idx, prog.Name))
	if err := fault.InjectCtx(ctx, "sample.window", fmt.Sprintf("%s#%d", prog.Name, idx)); err != nil {
		return Window{}, false, err
	}
	return runWindow(ctx, cfg, cfgKey, prog, sc, pw, idx, wm)
}

// RunPlanned executes plan's detailed windows under cfg and returns
// the whole-run estimate. Windows are independent (each resumes its own
// checkpoint and warms — or resumes warming recorded for its front-end
// geometry — from that alone), so they are dispatched to
// a pool of sc.Workers goroutines (0 = GOMAXPROCS) and merged
// deterministically by schedule index — the Result is identical for
// any worker count, byte for byte. The first window error cancels the
// rest.
func RunPlanned(ctx context.Context, cfg pipeline.Config, prog *emu.Program, sc Config, plan *Plan) (*Result, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("sample: nil plan")
	}
	if plan.Program != prog.Name {
		return nil, fmt.Errorf("sample: plan for %q cannot run program %q", plan.Program, prog.Name)
	}
	if plan.TotalInsts == 0 {
		return nil, fmt.Errorf("sample: plan has zero TotalInsts")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	res := &Result{
		Machine:    cfg.Name,
		Program:    prog.Name,
		ConfigKey:  cfg.Key(),
		Sampling:   sc,
		TotalInsts: plan.TotalInsts,
	}
	if plan.Period == 0 || len(plan.Windows) == 0 {
		// Too short to sample (or no window fit a fixed period): one
		// exact detailed run, recorded as a single all-measured window.
		if err := res.exactFallback(ctx, cfg, prog); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.Period = plan.Period
	wm := plan.warming()

	type slot struct {
		w  Window
		ok bool
	}
	out := make([]slot, len(plan.Windows))

	workers := sc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan.Windows) {
		workers = len(plan.Windows)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		werr   error
		werrAt = int64(len(plan.Windows))
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(plan.Windows)) {
					return
				}
				w, ok, err := runWindowSafe(wctx, cfg, res.ConfigKey, prog, sc, plan.Windows[i], int(i), wm)
				if err != nil {
					// Keep the earliest-indexed error so the reported
					// failure does not depend on worker scheduling.
					errMu.Lock()
					if i < werrAt {
						werrAt, werr = i, err
					}
					errMu.Unlock()
					cancel()
					return
				}
				out[i] = slot{w, ok}
			}
		}()
	}
	wg.Wait()
	// A cancellation-induced error from a later window must not mask
	// the caller's own context error.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}

	for _, s := range out {
		if !s.ok {
			continue
		}
		s.w.Index = len(res.Windows)
		res.Windows = append(res.Windows, s.w)
	}
	if len(res.Windows) == 0 {
		// Defensive: every scheduled window fell inside a halt region;
		// fall back to exact.
		res.Period = 0
		if err := res.exactFallback(ctx, cfg, prog); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.finalize()
	return res, nil
}

// exactFallback fills res with one exact detailed run of the whole
// program, recorded as a single all-measured window, and finalizes it.
func (r *Result) exactFallback(ctx context.Context, cfg pipeline.Config, prog *emu.Program) error {
	s, err := pipeline.New(cfg, prog)
	if err != nil {
		return err
	}
	er, err := s.Run(ctx, pipeline.RunOpts{ConfigKey: r.ConfigKey})
	if err != nil {
		return err
	}
	r.ExactFallback = true
	r.Windows = append(r.Windows, Window{
		Cycles:          er.Cycles,
		Retired:         er.Retired,
		Mispredicted:    er.Mispredicted,
		EarlyRecovered:  er.EarlyRecovered,
		LateRecovered:   er.LateRecovered,
		DecodeRedirects: er.DecodeRedirects,
		Opt:             er.Opt,
	})
	r.finalize()
	return nil
}

// windowOf extracts the measured window from one detailed run: the
// post-warmup region when warmup was requested (nil Measured means the
// program ended during warmup — no usable window), or the whole
// truncated run when the regime has no warmup.
func windowOf(r *pipeline.Result, start uint64, sc Config) (Window, bool) {
	if sc.Warmup == 0 {
		if r.Retired == 0 {
			return Window{}, false
		}
		return Window{
			StartInst:       start,
			Cycles:          r.Cycles,
			Retired:         r.Retired,
			Mispredicted:    r.Mispredicted,
			EarlyRecovered:  r.EarlyRecovered,
			LateRecovered:   r.LateRecovered,
			DecodeRedirects: r.DecodeRedirects,
			Opt:             r.Opt,
		}, true
	}
	mw := r.Measured
	if mw == nil || mw.Retired == 0 {
		return Window{}, false
	}
	return Window{
		StartInst:       start,
		WarmupCycles:    mw.WarmupCycles,
		WarmupRetired:   mw.WarmupRetired,
		Cycles:          mw.Cycles,
		Retired:         mw.Retired,
		Mispredicted:    mw.Mispredicted,
		EarlyRecovered:  mw.EarlyRecovered,
		LateRecovered:   mw.LateRecovered,
		DecodeRedirects: mw.DecodeRedirects,
		Opt:             mw.Opt,
	}, true
}
