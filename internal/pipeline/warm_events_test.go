package pipeline

import (
	"hash/crc32"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// refObserve is the per-instruction reference for Warmer.Warm: it feeds
// one dynamic record, as StepInto builds it, through w's front-end
// exactly as the fetch stage would — one I-cache access per new line
// plus the next-line prefetch, then a D-cache access per load or a
// predict/update pair per control transfer.
func refObserve(w *Warmer, d *emu.DynInst) {
	caches := w.fe.caches
	addr := d.PC * instBytes
	if line := addr &^ (w.lineB - 1); line != w.lastLine {
		caches.InstFetch(addr)
		caches.InstFetch(addr + w.lineB)
		w.lastLine = line
	}
	switch in := d.Inst; {
	case in.Op.IsLoad():
		caches.DataAccess(d.Addr)
	case in.Op.IsBranch():
		bp := w.fe.bp
		isReturn := in.Op == isa.JMP && in.SrcA == isa.IntReg(26)
		pred := bp.Predict(d.PC, in.Op, isReturn)
		mis := pred.Taken != d.Taken ||
			(d.Taken && (!pred.TargetKnown || pred.Target != d.NextPC))
		bp.Update(d.PC, in.Op, d.Taken, d.NextPC, mis)
	}
}

// warmGeometries are the front-ends FuzzWarmEvents warms: the paper's,
// one so small that the I- and D-streams collide in every L2 set (so
// the order of a load's line fetch and its data access shows), and one
// whose instruction lines are shorter than an instruction.
var warmGeometries = func() []Config {
	tiny := DefaultConfig()
	tiny.Caches = cache.HierarchyConfig{
		L1I:        cache.Config{Name: "L1I", SizeB: 64, Assoc: 1, LineB: 16, Latency: 1},
		L1D:        cache.Config{Name: "L1D", SizeB: 64, Assoc: 1, LineB: 16, Latency: 2},
		L2:         cache.Config{Name: "L2", SizeB: 128, Assoc: 2, LineB: 16, Latency: 10},
		MemLatency: 100,
	}
	tiny.BPred = bpred.Config{IndexBits: 4, HistoryBits: 4, BTBEntries: 4, RASEntries: 2}
	short := DefaultConfig()
	short.Caches.L1I = cache.Config{Name: "L1I", SizeB: 64, Assoc: 2, LineB: 2, Latency: 1}
	return []Config{DefaultConfig(), tiny, short}
}()

// warmProgram returns the program a FuzzWarmEvents input names: a
// built-in workload at scale 1, or a scenario family generated from
// seed. Any other string stands for one of those, picked by its hash,
// so every fuzzed input runs.
func warmProgram(t *testing.T, family string, seed uint64) *emu.Program {
	families := scenario.FamilyNames()
	if _, ok := workloads.ByName(family); !ok && !slices.Contains(families, family) {
		all := families
		for _, b := range workloads.All() {
			all = append(all, b.Name)
		}
		family = all[crc32.ChecksumIEEE([]byte(family))%uint32(len(all))]
	}
	if b, ok := workloads.ByName(family); ok {
		return b.Program(1)
	}
	spec := &scenario.Spec{Seed: seed, Scenarios: []scenario.ScenarioSpec{{Family: family}}}
	scens, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(scens[0].Name, scens[0].Source(1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzWarmEvents checks event warming against refObserve. An input is a
// (family, seed) tuple: family names a built-in or a scenario family,
// and seed picks the scenario, the front-end geometry and the batches.
// The warmer runs in phases: one-instruction Warm calls, a one-event
// buffer (every batch ends on a load or a control transfer), short
// buffers and instruction counts, and the full buffer, until HALT ends
// the last batch. After every phase the warmer's WarmDelta, PC,
// instruction count and registers must equal the reference's.
// The seed corpus (testdata/fuzz/FuzzWarmEvents) names every built-in
// and every scenario family.
func FuzzWarmEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, family string, seed uint64) {
		prog := warmProgram(t, family, seed)
		cfg := warmGeometries[seed%uint64(len(warmGeometries))]
		rng := rand.New(rand.NewPCG(seed, 0x5eed))

		m, ref := emu.New(prog), emu.New(prog)
		w, rw := NewWarmer(cfg), NewWarmer(cfg)
		var d emu.DynInst
		const limit = 1 << 20
		for phase := 0; !m.Halted(); phase++ {
			if m.InstCount() > limit {
				t.Fatalf("%s: no HALT within %d instructions", prog.Name, limit)
			}
			batch, calls, n := warmBatch, 1, uint64(rng.IntN(20000)+1)
			switch phase % 5 {
			case 0:
				calls, n = rng.IntN(64)+1, 1
			case 1:
				batch, n = 1, uint64(rng.IntN(2000)+1)
			case 2:
				batch, n = rng.IntN(16)+2, uint64(rng.IntN(5000)+1)
			}
			w.fe.events = make([]emu.Event, 0, batch)
			for ; calls > 0; calls-- {
				from := m.InstCount()
				w.Warm(m, n)
				for i := from; i < m.InstCount() && ref.StepInto(&d); i++ {
					refObserve(rw, &d)
				}
			}
			if m.PC != ref.PC || m.InstCount() != ref.InstCount() || m.Halted() != ref.Halted() || m.Regs() != ref.Regs() {
				t.Fatalf("%s phase %d: machine at PC %d, %d instructions, halted %v; reference at %d, %d, %v (or registers differ)",
					prog.Name, phase, m.PC, m.InstCount(), m.Halted(), ref.PC, ref.InstCount(), ref.Halted())
			}
			if got, want := w.Delta(), rw.Delta(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s phase %d (batch %d) at instruction %d: warmed front-end differs from the reference\n got %+v\nwant %+v",
					prog.Name, phase, batch, m.InstCount(), got, want)
			}
		}
	})
}
