package sample

// Single-pass plan tests: the one pass that counts a program and keeps
// a thinning checkpoint grid must produce exactly the checkpoints a
// fresh machine reaches at each window's warm-from point, keep the grid
// bounded, and reject a stale instruction count.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// planPrograms is the built-ins at their default scales plus every
// scenario family at two seeds.
func planPrograms(t *testing.T) []*emu.Program {
	t.Helper()
	var out []*emu.Program
	for _, b := range workloads.All() {
		out = append(out, b.Program(0))
	}
	for _, fam := range scenario.FamilyNames() {
		for seed := uint64(1); seed <= 2; seed++ {
			spec := &scenario.Spec{Seed: seed, Scenarios: []scenario.ScenarioSpec{{Family: fam}}}
			scens, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			p, err := asm.Assemble(fmt.Sprintf("%s-%d", scens[0].Name, seed), scens[0].Source(4))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// checkReferencePlan compares plan with a fresh machine run to the end
// and, separately, to each window's warm-from point.
func checkReferencePlan(t *testing.T, label string, p *emu.Program, plan *Plan) {
	t.Helper()
	ref := emu.New(p)
	ref.Run(0)
	if plan.TotalInsts != ref.InstCount() {
		t.Fatalf("%s: plan counts %d instructions, a fresh run %d", label, plan.TotalInsts, ref.InstCount())
	}
	ref = emu.New(p)
	for i, w := range plan.Windows {
		if n := w.WarmFrom - ref.InstCount(); n > 0 {
			ref.Run(n)
		}
		want, got := ref.Snapshot(), w.Ck
		if got.Program != want.Program || got.PC != want.PC || got.InstCount != want.InstCount ||
			got.Halted != want.Halted || got.Regs != want.Regs || !got.Mem.Equal(want.Mem) {
			t.Fatalf("%s: window %d checkpoint (pc %d, count %d) differs from a fresh run to %d (pc %d)",
				label, i, got.PC, got.InstCount, w.WarmFrom, want.PC)
		}
	}
}

// TestBuildPlanMatchesReferenceCheckpoints builds every plan twice —
// at the production grid spacing and at a tiny one that forces many
// thinning rounds on these short programs — under a warmed and a
// cold-start regime, and checks each against reference checkpoints.
func TestBuildPlanMatchesReferenceCheckpoints(t *testing.T) {
	cold := DefaultConfig()
	cold.ColdStart = true
	cold.Warmup = 1000
	ctx := context.Background()
	windows := 0
	for _, p := range planPrograms(t) {
		for _, sc := range []Config{DefaultConfig(), cold} {
			for _, spacing := range []uint64{gridSpacing, 64} {
				label := fmt.Sprintf("%s cold=%v spacing=%d", p.Name, sc.ColdStart, spacing)
				plan, err := buildPlan(ctx, p, sc, 0, spacing)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkReferencePlan(t, label, p, plan)
				windows += len(plan.Windows)
			}
		}
	}
	if windows < 1000 {
		t.Errorf("only %d windows checked", windows)
	}
}

// TestBuildPlanKnownCountMatches: stating the right count changes
// nothing about the plan.
func TestBuildPlanKnownCountMatches(t *testing.T) {
	p := prog(t, "mgd").Program(1)
	ctx := context.Background()
	unknown, err := BuildPlan(ctx, p, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	known, err := BuildPlan(ctx, p, DefaultConfig(), unknown.TotalInsts)
	if err != nil {
		t.Fatal(err)
	}
	plansEqual(t, unknown, known)
}

// TestStaleCountFailsLoudly: a stated count above or below the
// program's real one is an error from BuildPlan, instead
// of silently dropped windows or a schedule against the wrong total.
func TestStaleCountFailsLoudly(t *testing.T) {
	p := prog(t, "mcf").Program(1)
	ctx := context.Background()
	total := emu.RunProgram(p, 0).InstCount()
	for _, stale := range []uint64{total + 1, total - 1, 2 * total, total / 2} {
		if _, err := BuildPlan(ctx, p, DefaultConfig(), stale); err == nil {
			t.Errorf("BuildPlan accepted count %d for a %d-instruction program", stale, total)
		}
	}
}

// TestScanKeepsBoundedGrid pins the retained-checkpoint bound: however
// long the program runs against the grid spacing, the pass keeps at
// most maxCheckpoints evenly spaced checkpoints spanning the run.
func TestScanKeepsBoundedGrid(t *testing.T) {
	if maxCheckpoints != 32 {
		t.Fatalf("maxCheckpoints = %d; the plan memory sizing in docs/ARCHITECTURE.md assumes 32", maxCheckpoints)
	}
	p := prog(t, "mcf").Program(1)
	for _, start := range []uint64{1, 7, 64, gridSpacing} {
		total, grid, spacing, err := scan(context.Background(), p, start)
		if err != nil {
			t.Fatal(err)
		}
		if len(grid) > maxCheckpoints {
			t.Fatalf("start %d: %d checkpoints retained, bound %d", start, len(grid), maxCheckpoints)
		}
		if spacing%start != 0 || (spacing/start)&(spacing/start-1) != 0 {
			t.Errorf("start %d: spacing %d is not start times a power of two", start, spacing)
		}
		if spacing > start && len(grid) <= maxCheckpoints/2 {
			t.Errorf("start %d: thinned grid holds only %d checkpoints", start, len(grid))
		}
		if last := uint64(len(grid)-1) * spacing; last >= total || total > last+spacing {
			t.Errorf("start %d: grid of %d at spacing %d does not span %d instructions", start, len(grid), spacing, total)
		}
		for i, ck := range grid {
			if ck.InstCount != uint64(i)*spacing {
				t.Fatalf("start %d: checkpoint %d at instruction %d, want %d", start, i, ck.InstCount, uint64(i)*spacing)
			}
		}
	}
}

// TestBuiltPlanNoLargerThanDecoded: a plan straight from BuildPlan
// charges the budget no more than the same plan decoded from its
// encoding (plus one page of slack). Window checkpoints taken on a
// machine resumed from a grid checkpoint used to stack on the grid's
// page layer and keep every grid page they shadowed resident, several
// times the decoded size.
func TestBuiltPlanNoLargerThanDecoded(t *testing.T) {
	for _, name := range []string{"mcf", "gap", "bzp", "vpr"} {
		b := prog(t, name)
		plan, err := BuildPlan(context.Background(), b.Program(8*b.DefaultScale), DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Plan
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		built, dec := plan.Bytes(), decoded.Bytes()
		t.Logf("%s: %d windows, built %.1f KiB, decoded %.1f KiB", name, len(plan.Windows), float64(built)/1024, float64(dec)/1024)
		if len(plan.Windows) < 2 {
			t.Errorf("%s: %d windows; the check needs a sampled plan", name, len(plan.Windows))
		}
		if built > dec+mem.PageSize {
			t.Errorf("%s: built plan charges %d bytes, decoded %d", name, built, dec)
		}
	}
}
