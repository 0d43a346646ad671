package workloads

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/emu"
	"repro/internal/pipeline"
)

// TestFingerprintIsSourceHash pins the fingerprint every store key
// carries to its formula, the first 16 hex digits of SHA-256 over
// Source(scale): stores written by earlier builds stay warm only while
// it holds. Scale 0 is the default scale's fingerprint.
func TestFingerprintIsSourceHash(t *testing.T) {
	for _, b := range All() {
		for _, scale := range []int{1, 2} {
			sum := sha256.Sum256([]byte(b.Source(scale)))
			if got, want := b.Fingerprint(scale), hex.EncodeToString(sum[:])[:16]; got != want {
				t.Errorf("%s@%d: fingerprint %s, want %s", b.Name, scale, got, want)
			}
		}
		if b.Fingerprint(0) != b.Fingerprint(b.DefaultScale) {
			t.Errorf("%s: scale 0 and the default scale %d fingerprint differently", b.Name, b.DefaultScale)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registry has %d benchmarks, want 22 (Table 1)", len(all))
	}
	counts := map[string]int{}
	for _, b := range all {
		counts[b.Suite]++
	}
	if counts[SPECint] != 10 || counts[SPECfp] != 6 || counts[Mediabench] != 6 {
		t.Errorf("suite sizes = %v, want SPECint=10 SPECfp=6 mediabench=6", counts)
	}
	names := map[string]bool{}
	for _, b := range all {
		if names[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
		if b.Notes == "" || b.DefaultScale <= 0 {
			t.Errorf("%s: missing notes or scale", b.Name)
		}
	}
	for _, want := range []string{"bzp", "cra", "eon", "gap", "gcc", "mcf", "prl", "twf", "vor", "vpr",
		"amp", "app", "art", "eqk", "msa", "mgd",
		"g721d", "g721e", "mpg2d", "mpg2e", "untst", "tst"} {
		if !names[want] {
			t.Errorf("missing Table 1 benchmark %q", want)
		}
	}
}

func TestByNameAndBySuite(t *testing.T) {
	b, ok := ByName("mcf")
	if !ok || b.Suite != SPECint {
		t.Errorf("ByName(mcf) = %v, %v", b, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName should fail for unknown names")
	}
	if got := len(BySuite(Mediabench)); got != 6 {
		t.Errorf("BySuite(mediabench) = %d entries", got)
	}
	if got := len(Suites()); got != 3 {
		t.Errorf("Suites() = %d", got)
	}
}

// TestAllBenchmarksRunToCompletion executes every benchmark on the
// architectural emulator at a reduced scale and sanity-checks dynamic
// instruction counts.
func TestAllBenchmarksRunToCompletion(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m := emu.New(b.Program(2))
			n := m.Run(30_000_000)
			if !m.Halted() {
				t.Fatalf("%s did not halt within 30M instructions (%d executed)", b.Name, n)
			}
			if n < 500 {
				t.Errorf("%s executed only %d instructions; kernel too trivial", b.Name, n)
			}
		})
	}
}

// TestBenchmarksDeterministic runs each benchmark twice and compares the
// architectural result and instruction count.
func TestBenchmarksDeterministic(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m1 := emu.New(b.Program(2))
			m1.Run(0)
			m2 := emu.New(b.Program(2))
			m2.Run(0)
			if m1.InstCount() != m2.InstCount() {
				t.Errorf("instruction counts differ: %d vs %d", m1.InstCount(), m2.InstCount())
			}
			if m1.Regs() != m2.Regs() {
				t.Error("register files differ")
			}
		})
	}
}

// TestDefaultScaleInstructionCounts pins the dynamic instruction count
// of each benchmark at its default scale into the range the experiments
// assume (big enough to warm the tables, small enough to sweep).
func TestDefaultScaleInstructionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale emulation")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m := emu.New(b.Program(0))
			m.Run(30_000_000)
			if !m.Halted() {
				t.Fatalf("did not halt")
			}
			n := m.InstCount()
			if n < 50_000 || n > 3_000_000 {
				t.Errorf("default-scale instruction count %d outside [50k, 3M]", n)
			}
		})
	}
}

// TestPipelineAgreesWithOracle pushes a representative benchmark from
// each suite through both machine configurations; the optimizer's
// internal verification panics on any incorrect optimization, and the
// run must retire exactly the dynamic instruction count.
func TestPipelineAgreesWithOracle(t *testing.T) {
	for _, name := range []string{"mcf", "msa", "untst", "gcc"} {
		b, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := emu.New(b.Program(1))
			m.Run(0)
			want := m.InstCount()
			for _, cfg := range []pipeline.Config{
				pipeline.DefaultConfig().Baseline(),
				pipeline.DefaultConfig(),
			} {
				s, err := pipeline.New(cfg, b.Program(1))
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(context.Background(), pipeline.RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Retired != want {
					t.Errorf("%s: retired %d, oracle executed %d", cfg.Name, res.Retired, want)
				}
				if live := s.LiveRegs(); live != 0 {
					t.Errorf("%s: %d pregs leaked", cfg.Name, live)
				}
			}
		})
	}
}
