package emu_test

// Checkpoint round-trip property tests: a machine restored from a
// snapshot must produce exactly the architectural trace the
// uninterrupted run produces — and the snapshot must stay immune to
// later execution of both the source machine and any machine seeded
// from it (the shared-memory-image aliasing trap).

import (
	"testing"

	"repro/internal/emu"
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
