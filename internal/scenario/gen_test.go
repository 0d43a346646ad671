package scenario

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/workloads"
)

// checkScenario asserts the full generation contract for one scenario:
// the source assembles, the program halts within its declared
// instruction cap on the emulator, and regeneration is byte-identical.
func checkScenario(t *testing.T, sc *Scenario, scale int) {
	t.Helper()
	src := sc.Source(scale)
	prog, err := asm.Assemble(sc.Name, src)
	if err != nil {
		t.Fatalf("%s (family %s, seed %#x): does not assemble: %v\nsource:\n%s", sc.Name, sc.Family, sc.Seed, err, src)
	}
	cap := sc.InstCap(scale)
	m := emu.New(prog)
	m.Run(cap + 1)
	if !m.Halted() {
		t.Fatalf("%s (family %s, seed %#x): did not halt within declared cap %d", sc.Name, sc.Family, sc.Seed, cap)
	}
	if m.InstCount() > cap {
		t.Fatalf("%s: ran %d instructions, above declared cap %d", sc.Name, m.InstCount(), cap)
	}
	if again := sc.Source(scale); again != src {
		t.Fatalf("%s: regenerated source differs", sc.Name)
	}
}

// TestFamiliesDefaultsRun exercises every family at its knob defaults.
func TestFamiliesDefaultsRun(t *testing.T) {
	for _, fam := range FamilyNames() {
		t.Run(fam, func(t *testing.T) {
			spec := &Spec{Seed: 1, Scenarios: []ScenarioSpec{{Family: fam}}}
			scens, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			checkScenario(t, scens[0], 1)
		})
	}
}

// TestSeedFuzz is the termination/determinism property test: for 200
// random seeds, every generated program assembles, halts within its
// declared instruction cap, and regenerates byte-identically. Knob
// ranges are left at the family bounds but scale is pinned to 1 and the
// spec keeps iteration-ish knobs small so the fuzz stays fast.
func TestSeedFuzz(t *testing.T) {
	const seeds = 200
	meta := workloads.NewRNG(0xF00D)
	fams := FamilyNames()
	// Small draws for the expensive knobs; everything else fuzzes over
	// the full family bounds.
	small := map[string]map[string]Knob{
		"stream":  {"elems": {64, 512}},
		"chase":   {"nodes": {16, 256}, "hops": {16, 512}},
		"branchy": {"elems": {16, 256}},
		"ilp":     {"iters": {16, 256}},
		"mix":     {"iters": {16, 128}, "elems": {64, 512}},
	}
	for i := 0; i < seeds; i++ {
		fam := fams[int(meta.N(uint64(len(fams))))]
		params := map[string]Knob{}
		for _, k := range families[fam].knobs {
			if s, ok := small[fam][k.name]; ok {
				params[k.name] = s
			} else {
				params[k.name] = Knob{k.min, k.max}
			}
		}
		spec := &Spec{
			Seed: meta.Next(),
			Scenarios: []ScenarioSpec{{
				Family: fam,
				Name:   fmt.Sprintf("fuzz%d", i),
				Scale:  1,
				Params: params,
			}},
		}
		scens, err := spec.Generate()
		if err != nil {
			t.Fatalf("seed case %d (family %s): %v", i, fam, err)
		}
		checkScenario(t, scens[0], 1)
	}
}

// TestInstCapScales checks the cap covers a multi-trip run, not just
// scale 1.
func TestInstCapScales(t *testing.T) {
	spec := &Spec{Seed: 9, Scenarios: []ScenarioSpec{
		{Family: "mix", Params: map[string]Knob{"iters": {16, 16}, "elems": {64, 64}}},
	}}
	scens, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	checkScenario(t, scens[0], 4)
}
