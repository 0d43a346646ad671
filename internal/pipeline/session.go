package pipeline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// RunOpts controls one Session.Run: execution limits and interval
// telemetry. The zero value runs the program to completion with no
// observation, matching the pre-session API.
type RunOpts struct {
	// MaxCycles stops the simulation once this many cycles have elapsed
	// (0 = unlimited). The returned Result carries Truncated ==
	// TruncMaxCycles and reflects the machine state at the cut.
	MaxCycles uint64
	// MaxRetired stops the simulation once this many instructions have
	// retired (0 = unlimited); Truncated == TruncMaxRetired.
	MaxRetired uint64
	// Interval enables telemetry: every Interval cycles the session
	// closes an IntervalStats record, appends it to Result.Intervals,
	// and hands it to Observer (if set). 0 disables telemetry.
	Interval uint64
	// Observer, when non-nil and Interval > 0, receives each interval
	// record synchronously as the simulation crosses the boundary — the
	// live-progress hook. It must not retain the Session.
	Observer func(IntervalStats)
	// StreamOnly suppresses Result.Intervals: interval records go to
	// Observer only and are not retained. Use for progress tickers over
	// long runs, where keeping the series would cost memory for data
	// nobody re-reads.
	StreamOnly bool
	// WarmupRetired, when > 0, marks a measurement boundary: once that
	// many instructions have retired, the session snapshots its counters
	// and Result.Measured reports only the events after the boundary.
	// This is how sampled simulation discards a detailed window's
	// cold-start warmup (caches, predictor, optimizer tables filling)
	// from the measured statistics. The run itself is unaffected — use
	// MaxRetired to bound warmup + measured window together. If the run
	// ends before the boundary is reached, Result.Measured stays nil.
	WarmupRetired uint64
	// ConfigKey, when non-empty, is the session config's Config.Key(),
	// computed by the caller: Result.ConfigKey takes it instead of
	// hashing the config again. Callers that run many sessions of one
	// machine (sampled simulation runs one per window) hash it once.
	ConfigKey string
}

// TruncateReason says why a simulation stopped before program
// completion. Empty means the program ran to its HALT.
type TruncateReason string

// Truncation reasons reported in Result.Truncated.
const (
	TruncNone       TruncateReason = ""
	TruncMaxCycles  TruncateReason = "max-cycles"
	TruncMaxRetired TruncateReason = "max-retired"
)

// IntervalStats is one slice of a simulation's time series: the events
// of the cycles [StartCycle, StartCycle+Cycles). Every counter field is
// an interval delta, so summing a run's intervals field-wise reproduces
// the final Result totals; IPC is derived per interval. The last
// interval of a run may be shorter than RunOpts.Interval.
type IntervalStats struct {
	// Index is the interval's position in the run, from 0.
	Index int
	// StartCycle is the machine cycle the interval opened at.
	StartCycle uint64
	// Cycles is the interval length (== RunOpts.Interval except for the
	// final partial interval).
	Cycles uint64
	// Retired counts instructions retired during the interval.
	Retired uint64
	// Branch events of the interval (see Result for field meanings).
	Mispredicted    uint64
	EarlyRecovered  uint64
	LateRecovered   uint64
	DecodeRedirects uint64
	// Opt holds the optimizer events of the interval.
	Opt core.Stats
}

// EndCycle returns the first cycle after the interval.
func (iv IntervalStats) EndCycle() uint64 { return iv.StartCycle + iv.Cycles }

// IPC returns the interval's retired instructions per cycle (0 for an
// empty interval).
func (iv IntervalStats) IPC() float64 {
	if iv.Cycles == 0 {
		return 0
	}
	return float64(iv.Retired) / float64(iv.Cycles)
}

// snapshot freezes the monotone event counters for interval deltas.
type snapshot struct {
	retired         uint64
	mispredicted    uint64
	earlyRecovered  uint64
	lateRecovered   uint64
	decodeRedirects uint64
	opt             core.Stats
}

func (s *Session) snap() snapshot {
	return snapshot{
		retired:         s.res.Retired,
		mispredicted:    s.res.Mispredicted,
		earlyRecovered:  s.res.EarlyRecovered,
		lateRecovered:   s.res.LateRecovered,
		decodeRedirects: s.res.DecodeRedirects,
		opt:             *s.opt.Stats(),
	}
}

// ctxCheckMask throttles context polling to every 4096 cycles: cheap
// against a multi-thousand-cycle-per-ms simulator, prompt against a
// human or deadline.
const ctxCheckMask = 1<<12 - 1

// noProgressLimit aborts a simulation that has stopped retiring — a
// model deadlock — after this many cycles without a retirement.
const noProgressLimit = 500000

// Run simulates until the program halts, a RunOpts limit trips, or ctx
// is canceled. On success (including truncation by MaxCycles or
// MaxRetired, which is not an error) it returns the Result; on
// cancellation it returns an error wrapping ctx.Err() promptly, and the
// Session's partial machine state is abandoned. A Session is single-use:
// a second Run returns an error.
//
// The Result is the caller's own copy: it holds no reference into the
// Session, so keeping it (a memoized exact result, say) does not keep
// the Session's tables alive. However Run ends, it returns the
// session's front-end (caches and predictor) and back-end (register
// file, optimizer, queues, wheels, arena) to their pools.
func (s *Session) Run(ctx context.Context, opts RunOpts) (*Result, error) {
	if s.consumed {
		return nil, errors.New("pipeline: session already run (sessions are single-use; build a new one with New)")
	}
	s.consumed = true
	defer s.release()
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	s.res.ConfigKey = opts.ConfigKey
	if s.res.ConfigKey == "" {
		s.res.ConfigKey = s.cfg.Key()
	}

	var (
		truncated    TruncateReason
		lastRetired  uint64
		lastProgress uint64
		ivStart      uint64 // first cycle of the open interval
		prev         snapshot
		warmed       bool
		warmSnap     snapshot
		warmCycle    uint64
	)
	ivIndex := 0
	closeInterval := func() {
		cur := s.snap()
		iv := IntervalStats{
			Index:           ivIndex,
			StartCycle:      ivStart,
			Cycles:          s.cycle - ivStart,
			Retired:         cur.retired - prev.retired,
			Mispredicted:    cur.mispredicted - prev.mispredicted,
			EarlyRecovered:  cur.earlyRecovered - prev.earlyRecovered,
			LateRecovered:   cur.lateRecovered - prev.lateRecovered,
			DecodeRedirects: cur.decodeRedirects - prev.decodeRedirects,
			Opt:             cur.opt.Sub(prev.opt),
		}
		ivIndex++
		if !opts.StreamOnly {
			s.res.Intervals = append(s.res.Intervals, iv)
		}
		if opts.Observer != nil {
			opts.Observer(iv)
		}
		ivStart = s.cycle
		prev = cur
	}

	for !s.done() {
		if s.cycle&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("pipeline: %s/%s canceled at cycle %d: %w",
					s.res.Machine, s.res.Program, s.cycle, ctx.Err())
			default:
			}
		}
		if opts.MaxCycles > 0 && s.cycle >= opts.MaxCycles {
			truncated = TruncMaxCycles
			break
		}
		if opts.MaxRetired > 0 && s.res.Retired >= opts.MaxRetired {
			truncated = TruncMaxRetired
			break
		}

		s.complete()
		s.retire()
		s.issue()
		s.dispatch()
		s.rename()
		s.fetch()
		s.windowOccSum += uint64(s.window.len())
		for c := schedInt; c < numScheds; c++ {
			s.schedOccSum += uint64(len(s.scheds[c]))
		}
		s.cycle++

		if opts.Interval > 0 && s.cycle-ivStart >= opts.Interval {
			closeInterval()
		}
		if opts.WarmupRetired > 0 && !warmed && s.res.Retired >= opts.WarmupRetired {
			warmed = true
			warmSnap = s.snap()
			warmCycle = s.cycle
		}

		if s.res.Retired != lastRetired {
			lastRetired = s.res.Retired
			lastProgress = s.cycle
		} else if s.cycle-lastProgress > noProgressLimit {
			return nil, fmt.Errorf("pipeline: no retirement progress for %d cycles at cycle %d (%s/%s): window=%d fetchQ=%d renQ=%d",
				noProgressLimit, s.cycle, s.res.Machine, s.res.Program, s.window.len(), s.fetchQ.len(), s.renQ.len())
		}
	}
	if opts.Interval > 0 && s.cycle > ivStart {
		closeInterval() // final partial interval
	}

	if warmed {
		cur := s.snap()
		s.res.Measured = &MeasuredWindow{
			WarmupCycles:    warmCycle,
			WarmupRetired:   warmSnap.retired,
			Cycles:          s.cycle - warmCycle,
			Retired:         cur.retired - warmSnap.retired,
			Mispredicted:    cur.mispredicted - warmSnap.mispredicted,
			EarlyRecovered:  cur.earlyRecovered - warmSnap.earlyRecovered,
			LateRecovered:   cur.lateRecovered - warmSnap.lateRecovered,
			DecodeRedirects: cur.decodeRedirects - warmSnap.decodeRedirects,
			Opt:             cur.opt.Sub(warmSnap.opt),
		}
	}
	s.res.Truncated = truncated
	s.res.Cycles = s.cycle
	if s.cycle > 0 {
		s.res.AvgWindowOcc = float64(s.windowOccSum) / float64(s.cycle)
		s.res.AvgSchedOcc = float64(s.schedOccSum) / float64(s.cycle)
	}
	s.res.Opt = *s.opt.Stats()
	s.res.BPLookups = s.bp.Lookups
	s.res.L1DMissRate = s.caches.L1D.MissRate()
	s.res.L1IMissRate = s.caches.L1I.MissRate()
	if truncated == TruncNone {
		// Drop references held by feedback events that were still in
		// flight, then the optimizer tables, so leak checks can require
		// zero. A truncated run keeps its in-flight state (the window
		// still holds references), so the release only applies to
		// complete runs.
		s.feedbackQ.drain(func(ev feedbackEv) { s.prf.Release(ev.preg) })
		s.opt.ReleaseAll()
	}
	res := s.res
	return &res, nil
}

// release returns the session's front-end and back-end to their pools
// once Run has read their statistics into the Result. The session keeps
// only its live register count (LiveRegs).
func (s *Session) release() {
	s.liveRegs = s.prf.LiveCount()
	if s.onRelease != nil {
		s.onRelease()
	}
	s.fe.release()
	s.fe, s.bp, s.caches = nil, nil, nil
	*s.be = s.backEnd // keep whatever grew during the run
	s.backEnd = backEnd{}
	s.be.release()
	s.be = nil
}
