package core

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// TestResetAtEqualsNew: an optimizer that has renamed and filled its
// MBC, reset over its (reset) register file, is exactly the
// optimizer NewOptimizerAt builds — across modes, MBC sizes and file
// sizes, in both directions.
func TestResetAtEqualsNew(t *testing.T) {
	var regs [isa.NumRegs]uint64
	for i := range regs {
		regs[i] = uint64(i) * 0x101
	}
	small := full()
	small.MBCEntries = 32
	base := full()
	base.Mode = ModeBaseline
	cases := []struct {
		name     string
		from, to Config
		n        int
		regs     *[isa.NumRegs]uint64
	}{
		{"same config", full(), full(), 512, &regs},
		{"smaller MBC and file", full(), small, 300, nil},
		{"full to baseline", full(), base, 512, &regs},
		{"baseline to full", base, full(), 700, &regs},
	}
	for _, tc := range cases {
		dr := newDriver(t, tc.from, `
    ldi 0x1000 -> r1
    ldi 5 -> r2
loop:
    stq r2 -> [r1]
    ldq [r1] -> r3
    add r3, r2 -> r4
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, loop
    halt
`)
		for i := 0; i < 6; i++ {
			dr.bundle(4)
		}
		if tc.from.Mode == ModeFull && dr.o.MBCLive() == 0 {
			t.Fatalf("%s: the run left the MBC empty; the reset would not be exercised", tc.name)
		}
		dr.prf.Reset(tc.n)
		dr.o.ResetAt(tc.to, tc.regs)
		want := NewOptimizerAt(tc.to, regfile.New(tc.n), tc.regs)
		if !reflect.DeepEqual(dr.o, want) {
			t.Errorf("%s: ResetAt differs from NewOptimizerAt", tc.name)
		}
	}
}
