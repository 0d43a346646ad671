package emu_test

// Checkpoint round-trip property tests: a machine restored from a
// snapshot must produce exactly the architectural trace the
// uninterrupted run produces — and the snapshot must stay immune to
// later execution of both the source machine and any machine seeded
// from it (the shared-memory-image aliasing trap).

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/workloads"
)

func program(t *testing.T, name string, scale int) *emu.Program {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing from registry", name)
	}
	return b.Program(scale)
}

// traceFrom steps m to completion and returns the dynamic records.
func traceFrom(m *emu.Machine) []emu.DynInst {
	var out []emu.DynInst
	for {
		d := m.Step()
		if d == nil {
			return out
		}
		out = append(out, *d)
	}
}

func sameTrace(t *testing.T, label string, want, got []emu.DynInst) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: dynamic instruction %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

func sameArchState(t *testing.T, label string, a, b *emu.Machine) {
	t.Helper()
	if a.PC != b.PC || a.InstCount() != b.InstCount() || a.Halted() != b.Halted() {
		t.Fatalf("%s: PC/count/halt (%d,%d,%v) vs (%d,%d,%v)",
			label, a.PC, a.InstCount(), a.Halted(), b.PC, b.InstCount(), b.Halted())
	}
	if a.Regs() != b.Regs() {
		t.Fatalf("%s: register files differ", label)
	}
}

// TestSnapshotRestoreRoundTrip snapshots mid-run at several points and
// requires the restored machine to replay the identical suffix trace —
// after the source machine has already run ahead and mutated its
// memory, which is exactly what would corrupt a snapshot sharing the
// memory image instead of owning a deep copy.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, name := range []string{"mcf", "untst", "gcc"} {
		t.Run(name, func(t *testing.T) {
			prog := program(t, name, 1)
			for _, k := range []uint64{0, 1, 97, 1000, 2500} {
				m := emu.New(prog)
				if k > 0 && m.Run(k) < k {
					continue // program shorter than k
				}
				ck := m.Snapshot()

				// Run the source machine to completion FIRST: its stores
				// after the snapshot must not leak into the checkpoint.
				suffix := traceFrom(m)

				r := emu.NewAt(prog, ck)
				sameTrace(t, "restored", suffix, traceFrom(r))
				sameArchState(t, "restored end-state", m, r)

				// The checkpoint is reusable: a second machine seeded
				// from it (after the first already ran and stored) sees
				// the same suffix again.
				r2 := emu.NewAt(prog, ck)
				sameTrace(t, "second restore", suffix, traceFrom(r2))
			}
		})
	}
}

// TestRestoreIntoUsedMachine restores a checkpoint into a machine that
// has already executed something else entirely (a later point of the
// same program) and requires full convergence with the reference run.
func TestRestoreIntoUsedMachine(t *testing.T) {
	prog := program(t, "untst", 1)
	const k = 500

	ref := emu.New(prog)
	ref.Run(k)
	ck := ref.Snapshot()
	suffix := traceFrom(ref)

	m := emu.New(prog)
	m.Run(3 * k) // diverge: different PC, registers, dirty memory
	m.Restore(ck)
	sameTrace(t, "restore over used machine", suffix, traceFrom(m))
}

// TestSnapshotFields pins the bookkeeping fields the sampling subsystem
// schedules windows by.
func TestSnapshotFields(t *testing.T) {
	prog := program(t, "mcf", 1)
	m := emu.New(prog)
	const k = 321
	m.Run(k)
	ck := m.Snapshot()
	if ck.InstCount != k {
		t.Errorf("InstCount = %d, want %d", ck.InstCount, k)
	}
	if ck.Program != prog.Name {
		t.Errorf("Program = %q, want %q", ck.Program, prog.Name)
	}
	if ck.PC != m.PC {
		t.Errorf("PC = %d, machine at %d", ck.PC, m.PC)
	}
	if ck.Halted {
		t.Error("Halted set on a mid-run snapshot")
	}
}

// TestRestoreRejectsWrongProgram pins the cross-program guard.
func TestRestoreRejectsWrongProgram(t *testing.T) {
	ckProg := program(t, "mcf", 1)
	other := program(t, "untst", 1)
	ck := emu.New(ckProg).Snapshot()
	defer func() {
		if recover() == nil {
			t.Error("Restore of a foreign checkpoint did not panic")
		}
	}()
	emu.New(other).Restore(ck)
}

// TestRunMatchesStep pins the architectural-only fast path (Run, which
// writes no records) against the record-producing path (Step):
// fast-forward and stepping must land on identical architectural state.
func TestRunMatchesStep(t *testing.T) {
	for _, name := range []string{"mcf", "gcc", "untst", "tst"} {
		t.Run(name, func(t *testing.T) {
			prog := program(t, name, 1)
			fast := emu.New(prog)
			slow := emu.New(prog)
			for !slow.Halted() {
				slow.Step()
			}
			fast.Run(0)
			sameArchState(t, "Run vs Step", slow, fast)
			if got, want := fast.Mem.PageCount(), slow.Mem.PageCount(); got != want {
				t.Errorf("resident pages %d, want %d", got, want)
			}
		})
	}
}

// TestRunObservedMatchesStep pins the observed fast-forward (functional
// warming's path) against Step, record by record.
func TestRunObservedMatchesStep(t *testing.T) {
	prog := program(t, "untst", 1)
	slow := emu.New(prog)
	want := traceFrom(slow)

	fast := emu.New(prog)
	var got []emu.DynInst
	fast.RunObserved(0, func(d *emu.DynInst) { got = append(got, *d) })
	sameTrace(t, "RunObserved", want, got)
	sameArchState(t, "RunObserved end-state", slow, fast)
}

// TestSnapshotIsImmutable: a checkpoint shares its memory pages with the
// machine it was taken from and with every machine resumed from it, yet
// no store by any of them changes it.
func TestSnapshotIsImmutable(t *testing.T) {
	prog := program(t, "mcf", 1)
	m := emu.New(prog)
	m.Run(2000)
	ck := m.Snapshot()
	img := ck.Mem.Export()
	regs := ck.Regs

	m.Run(0) // the source machine runs on, storing
	r := emu.NewAt(prog, ck)
	r.Run(0) // so does a machine resumed from the checkpoint
	m.Restore(ck)
	m.Mem.Store64(0x20000, 0xDEAD)
	if got := ck.Mem.Export(); !reflect.DeepEqual(got, img) || ck.Regs != regs {
		t.Error("stores after a sharing Snapshot changed the checkpoint")
	}
	if m.Mem.Load64(0x20000) != 0xDEAD {
		t.Error("a store to a restored machine was lost")
	}
}

// TestNewMemorySharesFrozenImage: every machine of a program starts
// from one frozen data image. Two machines that store different values
// to one address each read back their own, a third new machine still
// sees the original image, and machines that have not stored hold no
// page of their own.
func TestNewMemorySharesFrozenImage(t *testing.T) {
	p := program(t, "bzp", 1)
	if len(p.Data) == 0 || len(p.Data[0].Bytes) < 16 {
		t.Fatal("bzp has no data segment to store into")
	}
	want := mem.New()
	for _, s := range p.Data {
		want.WriteBlock(s.Addr, s.Bytes)
	}
	addr := (p.Data[0].Addr + 7) &^ 7
	orig := want.Load64(addr)

	a, b := emu.New(p), emu.New(p)
	if one, both := mem.ResidentBytes(a.Mem), mem.ResidentBytes(a.Mem, b.Mem); one != both {
		t.Errorf("two new machines hold %d bytes, one holds %d: the image is not shared", both, one)
	}
	a.Mem.Store64(addr, orig+1)
	b.Mem.Store64(addr, orig+2)
	if got := a.Mem.Load64(addr); got != orig+1 {
		t.Errorf("machine a reads %#x, stored %#x", got, orig+1)
	}
	if got := b.Mem.Load64(addr); got != orig+2 {
		t.Errorf("machine b reads %#x, stored %#x", got, orig+2)
	}
	if c := emu.New(p); !c.Mem.Equal(want) {
		t.Error("a third machine does not see the original image after two machines stored to it")
	}

	// Machines of one program start and store concurrently (exact
	// cells of a sweep do): each still reads back only its own store.
	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := emu.New(p)
			m.Mem.Store64(addr, orig+10+g)
			if got := m.Mem.Load64(addr); got != orig+10+g {
				t.Errorf("concurrent machine %d reads %#x, stored %#x", g, got, orig+10+g)
			}
		}()
	}
	wg.Wait()
}
