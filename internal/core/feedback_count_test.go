package core

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// Value feedback stops scanning once it has folded as many entries as
// the base counts (Optimizer.ratBases, mbc.bases) say are based on the
// fed-back preg. That early exit is only correct if the counts are
// exact, so these tests drive seeded random sequences and, after every
// step, compare each count with a recount of the table and the
// early-exit feedback with a full-scan reference: the same entries
// folded, the same FeedbackApplied, the same reference counts.

// recountRAT counts, per preg, the RAT entries feedback can fold.
func recountRAT(o *Optimizer) []uint32 {
	n := make([]uint32, len(o.ratBases))
	for r := range o.rat {
		e := &o.rat[r]
		if e.symOK && e.sym.HasBase() {
			n[e.sym.Base]++
		}
	}
	return n
}

// recountMBC counts, per preg, the valid MBC entries based on it.
func recountMBC(m *mbc) []uint32 {
	n := make([]uint32, len(m.bases))
	for i := range m.entries {
		e := &m.entries[i]
		if e.valid && e.sym.HasBase() {
			n[e.sym.Base]++
		}
	}
	return n
}

// fullMBCFeedback is mbc.feedback without the count gate or the early
// exit: a scan of the whole table.
func fullMBCFeedback(m *mbc, p regfile.PReg, val uint64) (applied uint64) {
	for i := range m.entries {
		e := &m.entries[i]
		if e.valid && e.sym.HasBase() && e.sym.Base == p {
			e.sym = Const(e.sym.Eval(val))
			m.bases[p]--
			m.prf.Release(p)
			applied++
		}
	}
	return applied
}

// fullFeedback is Optimizer.Feedback scanning every RAT entry and every
// MBC entry.
func fullFeedback(o *Optimizer, p regfile.PReg, val uint64) {
	if o.cfg.Mode == ModeBaseline || p == regfile.NoPReg || o.cfg.DiscreteWindow > 0 {
		return
	}
	for r := range o.rat {
		e := &o.rat[r]
		if e.symOK && e.sym.HasBase() && e.sym.Base == p {
			e.sym = Const(e.sym.Eval(val))
			o.symUnref(e, p)
			o.stats.FeedbackApplied++
		}
	}
	if o.mbc != nil {
		o.stats.FeedbackApplied += fullMBCFeedback(o.mbc, p, val)
	}
}

func equalCounts(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equalRefs reports whether two register files hold the same reference
// counts.
func equalRefs(a, b *regfile.File) bool {
	for p := 0; p < a.Size(); p++ {
		if a.Refs(regfile.PReg(p)) != b.Refs(regfile.PReg(p)) {
			return false
		}
	}
	return true
}

func TestMBCFeedbackCountsProperty(t *testing.T) {
	const pregs, held, entries, steps = 48, 12, 16, 3000
	for seed := uint64(1); seed <= 20; seed++ {
		rng := workloads.NewRNG(seed)
		// fast uses mbc.feedback, ref the full scan; both see the same
		// operation sequence.
		var fastPRF, refPRF = regfile.New(pregs), regfile.New(pregs)
		fast, ref := newMBC(entries, fastPRF), newMBC(entries, refPRF)
		// The test holds one reference on each of the first `held`
		// pregs so every install and feedback names a live preg.
		live := make([]regfile.PReg, held)
		for i := range live {
			live[i] = fastPRF.Alloc()
			refPRF.Alloc()
		}
		pick := func() regfile.PReg { return live[rng.N(held)] }
		for step := 0; step < steps; step++ {
			addr := 8 * rng.N(3*entries) // conflicts and reuse
			size := uint8(8)
			if rng.N(4) == 0 {
				size = 4
			}
			var what string
			switch k := rng.N(100); {
			case k < 50:
				what = "install"
				preg := pick()
				sym := Const(rng.Next())
				if rng.N(3) != 0 {
					sym = SymVal{Base: pick(), Scale: uint8(rng.N(MaxScale + 1)), Off: rng.N(64)}
				}
				fast.install(addr, size, preg, sym, 0, 0)
				ref.install(addr, size, preg, sym, 0, 0)
			case k < 90:
				what = "feedback"
				p, val := pick(), rng.Next()
				if a, b := fast.feedback(p, val), fullMBCFeedback(ref, p, val); a != b {
					t.Fatalf("seed %d step %d: feedback applied %d, full scan %d", seed, step, a, b)
				}
			case k < 98:
				what = "invalidate"
				if e := fast.lookup(addr, size); e != nil {
					fast.invalidate(e)
					ref.invalidate(ref.lookup(addr, size))
				}
			default:
				what = "flush"
				fast.flush()
				ref.flush()
			}
			if !equalCounts(fast.bases, recountMBC(fast)) {
				t.Fatalf("seed %d step %d (%s): bases %v, recount %v", seed, step, what, fast.bases, recountMBC(fast))
			}
			for i := range fast.entries {
				if fast.entries[i] != ref.entries[i] {
					t.Fatalf("seed %d step %d (%s): entry %d %+v, full scan %+v", seed, step, what, i, fast.entries[i], ref.entries[i])
				}
			}
			if !equalRefs(fastPRF, refPRF) {
				t.Fatalf("seed %d step %d (%s): reference counts diverge from the full scan", seed, step, what)
			}
		}
	}
}

// ratTwin is one optimizer of a lock-step pair: its own register file
// and emulator over the same program, with the in-flight references a
// pipeline would hold.
type ratTwin struct {
	m   *emu.Machine
	prf *regfile.File
	o   *Optimizer
	// inflight holds renamed instructions' references until "retire";
	// pending holds fed-back values (with a reference) until delivery.
	inflight [][]regfile.PReg
	pending  []pendingFeedback
}

type pendingFeedback struct {
	p   regfile.PReg
	val uint64
}

func newRATTwin(cfg Config, prog *emu.Program) *ratTwin {
	prf := regfile.New(512)
	return &ratTwin{m: emu.New(prog), prf: prf, o: NewOptimizer(cfg, prf)}
}

func TestRATFeedbackCountsProperty(t *testing.T) {
	benches := []string{"bzp", "gap", "art", "twf", "g721d", "mcf", "gcc", "mpg2e"}
	for _, mode := range []Mode{ModeFull, ModeFeedbackOnly} {
		for bi, name := range benches {
			b, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("benchmark %q missing", name)
			}
			cfg := DefaultConfig()
			cfg.Mode = mode
			prog := b.Program(1)
			rng := workloads.NewRNG(uint64(bi) + 1)
			fast, ref := newRATTwin(cfg, prog), newRATTwin(cfg, prog)
			for step := 0; step < 6000; step++ {
				if step%4 == 0 {
					fast.o.BeginBundle()
					ref.o.BeginBundle()
				}
				d := fast.m.Step()
				dr := ref.m.Step()
				if d == nil {
					break
				}
				if !fast.o.CanRename() {
					t.Fatalf("%s: register file exhausted", name)
				}
				rf, rr := fast.o.Rename(d), ref.o.Rename(dr)
				if rf.Kind != rr.Kind || rf.Dest != rr.Dest || len(rf.Deps) != len(rr.Deps) {
					t.Fatalf("%s/%v step %d: rename %+v, full-scan twin %+v", name, mode, step, rf, rr)
				}
				for _, tw := range []*ratTwin{fast, ref} {
					res := rf
					if tw == ref {
						res = rr
					}
					refs := append([]regfile.PReg{res.Dest}, res.Deps...)
					tw.inflight = append(tw.inflight, refs)
					if res.Kind == KindNormal && res.Dest != regfile.NoPReg {
						tw.prf.AddRef(res.Dest)
						tw.pending = append(tw.pending, pendingFeedback{res.Dest, d.Result})
					}
				}
				// Deliver a random number of the oldest pending values
				// and retire a random number of the oldest instructions,
				// identically on both twins.
				deliver := int(rng.N(3))
				retire := 0
				if len(fast.inflight) > 64 || rng.N(2) == 0 {
					retire = int(rng.N(6))
				}
				for _, tw := range []*ratTwin{fast, ref} {
					for i := 0; i < deliver && len(tw.pending) > 0; i++ {
						ev := tw.pending[0]
						tw.pending = tw.pending[1:]
						if tw == fast {
							tw.o.Feedback(ev.p, ev.val)
						} else {
							fullFeedback(tw.o, ev.p, ev.val)
						}
						tw.prf.Release(ev.p)
					}
					for i := 0; i < retire && len(tw.inflight) > 0; i++ {
						for _, p := range tw.inflight[0] {
							tw.prf.Release(p)
						}
						tw.inflight = tw.inflight[1:]
					}
				}
				if !equalCounts(fast.o.ratBases, recountRAT(fast.o)) {
					t.Fatalf("%s/%v step %d: ratBases diverge from a recount", name, mode, step)
				}
				if fast.o.mbc != nil && !equalCounts(fast.o.mbc.bases, recountMBC(fast.o.mbc)) {
					t.Fatalf("%s/%v step %d: MBC bases diverge from a recount", name, mode, step)
				}
				if fast.o.rat != ref.o.rat {
					t.Fatalf("%s/%v step %d: RAT diverges from the full-scan twin", name, mode, step)
				}
				if fast.o.stats != ref.o.stats {
					t.Fatalf("%s/%v step %d: stats %+v, full-scan twin %+v", name, mode, step, fast.o.stats, ref.o.stats)
				}
				if !equalRefs(fast.prf, ref.prf) {
					t.Fatalf("%s/%v step %d: reference counts diverge from the full-scan twin", name, mode, step)
				}
			}
			if fast.o.stats.FeedbackApplied == 0 {
				t.Errorf("%s/%v: no feedback folded; the test exercised nothing", name, mode)
			}
		}
	}
}
