package asm

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

const roundTripSrc = `
start:
    ldi params -> r28
    ldq [r28] -> r1
    ldi 0 -> r2
loop:
    ldq [r28+8] -> r3
    add r2, r3 -> r2
    mul r2, 3 -> r4
    stq r4 -> [r28+16]
    mov r4 -> r5
    beq r5, done
    sub r1, 1 -> r1
    bne r1, loop
done:
    jsr ra, fn
    halt
fn:
    fldq [r28+24] -> f1
    fadd f1, f1 -> f2
    fstq f2 -> [r28+32]
    ftoi f2 -> r6
    jmp ra

.org 0x20000
.data params
.quad 12, 7, 0, 4611686018427387904, 0
`

func TestFormatRoundTrip(t *testing.T) {
	p1, err := Assemble("rt", roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(p1)
	p2, err := Assemble("rt2", text)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, text)
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatalf("code length %d vs %d", len(p1.Code), len(p2.Code))
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Errorf("inst %d: %v vs %v", i, p1.Code[i], p2.Code[i])
		}
	}
	// Strongest equivalence: identical architectural execution.
	m1 := emu.RunProgram(p1, 100000)
	m2 := emu.RunProgram(p2, 100000)
	if m1.InstCount() != m2.InstCount() {
		t.Errorf("instruction counts differ: %d vs %d", m1.InstCount(), m2.InstCount())
	}
	for r := 0; r < isa.NumRegs; r++ {
		if m1.Reg(isa.Reg(r)) != m2.Reg(isa.Reg(r)) {
			t.Errorf("register %d differs: %#x vs %#x", r, m1.Reg(isa.Reg(r)), m2.Reg(isa.Reg(r)))
		}
	}
}

func TestFormatMentionsProgramName(t *testing.T) {
	p := MustAssemble("named", "start:\n nop\n halt\n")
	if !strings.Contains(Format(p), `"named"`) {
		t.Error("Format should carry the program name as a comment")
	}
}

func TestFormatDataPadding(t *testing.T) {
	// A 3-byte segment must round up to one quad without corrupting it.
	p := &emu.Program{
		Name: "pad",
		Code: []isa.Inst{{Op: isa.HALT}},
		Data: []emu.Segment{{Addr: 0x1000, Bytes: []byte{1, 2, 3}}},
	}
	p2, err := Assemble("pad2", Format(p))
	if err != nil {
		t.Fatal(err)
	}
	m := p2.NewMemory()
	if got := m.Load64(0x1000); got != 0x030201 {
		t.Errorf("padded data = %#x, want 0x030201", got)
	}
}
