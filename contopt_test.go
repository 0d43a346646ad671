package contopt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func TestAssembleAndRunRoundTrip(t *testing.T) {
	prog, err := Assemble("roundtrip", `
start:
    ldi params -> r1
    ldq [r1] -> r2
loop:
    sub r2, 1 -> r2
    bne r2, loop
    stq r2 -> [r1+8]
    halt
.org 0x20000
.data params
.quad 100, 1
`)
	if err != nil {
		t.Fatal(err)
	}
	m := Emulate(prog, 0)
	if got := m.Mem.Load64(0x20008); got != 0 {
		t.Errorf("stored result %d, want 0", got)
	}
	base, err := RunProgram(context.Background(), BaselineConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunProgram(context.Background(), DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if base.Retired != opt.Retired || base.Retired != m.InstCount() {
		t.Errorf("instruction counts disagree: emu=%d base=%d opt=%d",
			m.InstCount(), base.Retired, opt.Retired)
	}
}

func TestAssembleError(t *testing.T) {
	if _, err := Assemble("bad", "frobnicate r1"); err == nil {
		t.Error("expected assembly error")
	}
}

func TestBenchmarkRegistryAccess(t *testing.T) {
	all := workloads.All()
	if len(all) != 22 {
		t.Fatalf("workloads.All() = %d entries, want 22", len(all))
	}
	b, err := BenchmarkByName("untst")
	if err != nil || b.Suite != "mediabench" {
		t.Errorf("BenchmarkByName(untst) = %v, %v", b, err)
	}
	if _, err := BenchmarkByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("expected unknown-benchmark error, got %v", err)
	}
}

func TestRunBenchmark(t *testing.T) {
	res, err := RunBenchmark(context.Background(), "art", 1, DefaultConfig(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 || res.Cycles == 0 {
		t.Errorf("empty result: %v", res)
	}
	if _, err := RunBenchmark(context.Background(), "nope", 1, DefaultConfig(), RunOpts{}); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestConfigConstructors(t *testing.T) {
	def := DefaultConfig()
	if def.Opt.Mode != core.ModeFull {
		t.Error("DefaultConfig should enable full optimization")
	}
	base := BaselineConfig()
	if base.Opt.Mode != core.ModeBaseline {
		t.Error("BaselineConfig should disable the optimizer")
	}
	if def.MinBranchLoop() != base.MinBranchLoop()+def.OptStages {
		t.Errorf("optimizer stages should lengthen the branch loop: %d vs %d",
			def.MinBranchLoop(), base.MinBranchLoop())
	}
}

// TestOptimizedMachineNeverChangesResults is the top-level architectural
// correctness gate: for a sample of benchmarks, the optimized machine
// retires exactly the oracle's dynamic instruction count (the optimizer
// panics internally on any value mismatch).
func TestOptimizedMachineNeverChangesResults(t *testing.T) {
	for _, name := range []string{"bzp", "eqk", "g721e", "vpr"} {
		b, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := b.Program(1)
		want := Emulate(prog, 0).InstCount()
		res, err := RunProgram(context.Background(), DefaultConfig(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Retired; got != want {
			t.Errorf("%s: retired %d, oracle %d", name, got, want)
		}
	}
}
