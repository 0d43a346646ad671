package pipeline

import (
	"context"
	"errors"
	"fmt"
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
// of the cycles [StartCycle, StartCycle+Cycles). Its Counts are interval
// deltas, so summing a run's intervals with Counts.Add reproduces the
// final Result.Counts. The last interval of a run may be shorter than
// RunOpts.Interval.
type IntervalStats struct {
	// Index is the interval's position in the run, from 0.
	Index int
	// StartCycle is the machine cycle the interval opened at.
	StartCycle uint64
	// Counts holds the interval's events; Cycles is its length
	// (== RunOpts.Interval except for the final partial interval).
	Counts
}

// EndCycle returns the first cycle after the interval.
func (iv IntervalStats) EndCycle() uint64 { return iv.StartCycle + iv.Cycles }

// snap returns the run's counts so far, for interval and warmup deltas.
func (s *Session) snap() Counts {
	c := s.res.Counts()
	c.Cycles, c.Opt = s.cycle, *s.opt.Stats()
	return c
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
		prev         Counts // snapshot at the open interval's start
		warmed       bool
		warm         Counts // snapshot at the warmup boundary
	)
	ivIndex := 0
	closeInterval := func() {
		cur := s.snap()
		iv := IntervalStats{Index: ivIndex, StartCycle: prev.Cycles, Counts: cur.Sub(prev)}
		ivIndex++
		if !opts.StreamOnly {
			s.res.Intervals = append(s.res.Intervals, iv)
		}
		if opts.Observer != nil {
			opts.Observer(iv)
		}
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
		s.schedOccSum += uint64(s.schedOcc)
		s.cycle++

		if opts.Interval > 0 && s.cycle-prev.Cycles >= opts.Interval {
			closeInterval()
		}
		if opts.WarmupRetired > 0 && !warmed && s.res.Retired >= opts.WarmupRetired {
			warmed = true
			warm = s.snap()
		}

		if s.res.Retired != lastRetired {
			lastRetired = s.res.Retired
			lastProgress = s.cycle
		} else if s.cycle-lastProgress > noProgressLimit {
			return nil, fmt.Errorf("pipeline: no retirement progress for %d cycles at cycle %d (%s/%s): window=%d fetchQ=%d renQ=%d",
				noProgressLimit, s.cycle, s.res.Machine, s.res.Program, s.window.len(), s.fetchQ.len(), s.renQ.len())
		}
	}
	if opts.Interval > 0 && s.cycle > prev.Cycles {
		closeInterval() // final partial interval
	}

	if warmed {
		s.res.Measured = &MeasuredWindow{
			WarmupCycles:  warm.Cycles,
			WarmupRetired: warm.Retired,
			Counts:        s.snap().Sub(warm),
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
