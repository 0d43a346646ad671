package scenario

import (
	"fmt"
	"strings"

	"repro/internal/workloads"
)

// The mix family is the fully random program generator: the loop body
// is a seeded sequence of structural templates — masked loads and
// stores, ALU bursts, biased forward branches, and (optionally) one
// counted inner loop — drawn by op-mix weight. Because every template
// is a counted loop or a forward if/else join, the dynamic instruction
// count of any generated program is bounded by construction, whatever
// the seed: termination is a structural property, not a test outcome.
//
// Memory safety by construction, too: load and store cursors are
// masked to the power-of-two table size before every use, so every
// generated address stays inside the declared tables for any seed.
var _ = registerFamily(&familyDef{
	name:         "mix",
	doc:          "seeded random structured program: weighted mix of loads, stores, ALU, branches, inner loops",
	defaultScale: 8,
	knobs: []knob{
		{"blocks", 6, 1, 12, "structural templates per loop body"},
		{"iters", 256, 16, 2048, "loop iterations per outer trip"},
		{"mem", 30, 0, 100, "op-mix weight of memory templates"},
		{"alu", 50, 0, 100, "op-mix weight of ALU templates"},
		{"branch", 20, 0, 100, "op-mix weight of branch templates"},
		{"elems", 1024, 64, 8192, "table size in words (rounded up to a power of two)"},
		{"inner", 1, 0, 1, "1 = allow one counted inner loop"},
	},
	classify: classifyMix,
	emit:     emitMix,
})

func classifyMix(p map[string]int64) string {
	mem, alu, branch := p["mem"], p["alu"], p["branch"]
	total := mem + alu + branch
	if total == 0 {
		alu, total = 1, 1
	}
	switch {
	case mem*100 >= total*45:
		return workloads.ClassMemory
	case branch*100 >= total*30:
		return workloads.ClassBranchy
	case alu*100 >= total*65:
		return workloads.ClassILP
	default:
		return workloads.ClassMixed
	}
}

// pow2 rounds n up to the next power of two.
func pow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// mixGen carries the generator state for one program: the RNG, the
// label counter, and the address masks.
type mixGen struct {
	r     *workloads.RNG
	label int
	mask  int64
}

// frag is one generated body fragment with its dynamic-instruction
// upper bound (taken branch arms and full loop trips included).
type frag struct {
	text string
	max  uint64
}

func (g *mixGen) nextLabel() string {
	g.label++
	return fmt.Sprintf("L%d", g.label)
}

// genALU emits 1-4 ALU ops alternating between the checksum and the
// value register, with occasional multiplies.
func (g *mixGen) genALU() frag {
	n := 1 + g.r.N(4)
	var b strings.Builder
	for i := uint64(0); i < n; i++ {
		reg := "r19"
		if i%2 == 1 {
			reg = "r7"
		}
		c := 1 + g.r.N(255)
		switch {
		case g.r.N(4) == 0:
			fmt.Fprintf(&b, "    mul %s, %d -> %s\n", reg, 1+c%7, reg)
		case g.r.N(2) == 0:
			fmt.Fprintf(&b, "    add %s, %d -> %s\n", reg, c, reg)
		default:
			fmt.Fprintf(&b, "    xor %s, %d -> %s\n", reg, c, reg)
		}
	}
	return frag{b.String(), n}
}

// genLoad emits a masked table load feeding the value register and the
// checksum, then advances the load cursor by a random word stride.
func (g *mixGen) genLoad() frag {
	step := 8 * (1 + g.r.N(8))
	text := fmt.Sprintf(`    and r3, %d -> r3
    add r5, r3 -> r8
    ldq [r8] -> r7
    add r19, r7 -> r19
    add r3, %d -> r3
`, g.mask, step)
	return frag{text, 5}
}

// genStore emits a masked store of the checksum, then advances the
// store cursor.
func (g *mixGen) genStore() frag {
	step := 8 * (1 + g.r.N(8))
	text := fmt.Sprintf(`    and r10, %d -> r10
    add r6, r10 -> r8
    stq r19 -> [r8]
    add r10, %d -> r10
`, g.mask, step)
	return frag{text, 4}
}

// genBranch emits a forward branch on one random bit of the last loaded
// value, skipping a short ALU arm — a join, never a back edge.
func (g *mixGen) genBranch() frag {
	l := g.nextLabel()
	var b strings.Builder
	fmt.Fprintf(&b, "    and r7, %d -> r9\n    beq r9, %s\n", int64(1)<<g.r.N(8), l)
	arm := g.genALU()
	b.WriteString(arm.text)
	fmt.Fprintf(&b, "%s:\n", l)
	return frag{b.String(), 2 + arm.max}
}

// genInner emits a counted inner loop (constant trip count 2-6) around
// one or two load/ALU sub-templates — nested control flow that still
// terminates by construction.
func (g *mixGen) genInner() frag {
	trips := 2 + g.r.N(5)
	l := g.nextLabel()
	var b strings.Builder
	fmt.Fprintf(&b, "    ldi %d -> r11\n%s:\n", trips, l)
	var inner uint64
	for i := uint64(0); i <= g.r.N(2); i++ {
		var f frag
		if g.r.N(2) == 0 {
			f = g.genLoad()
		} else {
			f = g.genALU()
		}
		b.WriteString(f.text)
		inner += f.max
	}
	fmt.Fprintf(&b, "    sub r11, 1 -> r11\n    bne r11, %s\n", l)
	return frag{b.String(), 1 + trips*(inner+2)}
}

func emitMix(p map[string]int64, seed uint64) emitted {
	mem, alu, branch := p["mem"], p["alu"], p["branch"]
	if mem+alu+branch == 0 {
		alu = 1
	}
	total := uint64(mem + alu + branch)
	elems := pow2(p["elems"])
	g := &mixGen{r: workloads.NewRNG(seed), mask: (elems - 1) * 8}

	var b strings.Builder
	fmt.Fprintf(&b, `    ldi src -> r5
    ldi out -> r6
    ldi 0 -> r3
    ldi 0 -> r10
    ldi %d -> r7
    ldq [r28+8] -> r2       ; iterations
loop:
`, 1+g.r.N(255))
	var perIter uint64
	innerUsed := p["inner"] == 0
	for i := int64(0); i < p["blocks"]; i++ {
		var f frag
		if !innerUsed && g.r.N(4) == 0 {
			innerUsed = true
			f = g.genInner()
		} else {
			switch x := g.r.N(total); {
			case x < uint64(mem):
				if g.r.N(3) == 0 {
					f = g.genStore()
				} else {
					f = g.genLoad()
				}
			case x < uint64(mem+alu):
				f = g.genALU()
			default:
				f = g.genBranch()
			}
		}
		b.WriteString(f.text)
		perIter += f.max
	}
	b.WriteString("    sub r2, 1 -> r2\n    bne r2, loop\n")

	data := fmt.Sprintf(".org %#x\n.data src\n%s.org %#x\n.data out\n.space %d\n",
		srcBase, workloads.Quads(int(elems), func(int) uint64 { return g.r.Next() }),
		outBase, elems*8)
	iters := uint64(p["iters"])
	return emitted{
		body:    b.String(),
		data:    data,
		params:  []uint64{iters},
		bodyMax: 6 + iters*(perIter+2),
	}
}
