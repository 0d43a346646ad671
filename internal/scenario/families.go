package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/workloads"
)

// emitted is the scale-independent output of a family emitter: the
// outer-loop body, the data tables it references, the params words the
// body loads (after the leading scale word), and an upper bound on the
// dynamic instructions one outer trip executes.
type emitted struct {
	body    string
	data    string
	params  []uint64
	bodyMax uint64
}

// knob is one integer parameter of a family with its default and the
// bounds user specs may draw within.
type knob struct {
	name          string
	def, min, max int64
	doc           string
}

// familyDef is one parameterized kernel family.
type familyDef struct {
	name         string
	doc          string
	defaultScale int
	knobs        []knob // declared order fixes RNG draw order — append only
	classify     func(p map[string]int64) string
	emit         func(p map[string]int64, seed uint64) emitted
}

func (f *familyDef) knob(name string) (knob, bool) {
	for _, k := range f.knobs {
		if k.name == name {
			return k, true
		}
	}
	return knob{}, false
}

func (f *familyDef) knobNames() []string {
	out := make([]string, len(f.knobs))
	for i, k := range f.knobs {
		out[i] = k.name
	}
	return out
}

var families = map[string]*familyDef{}

func registerFamily(f *familyDef) *familyDef {
	families[f.name] = f
	return f
}

// FamilyNames returns the registered family names, sorted.
func FamilyNames() []string {
	out := make([]string, 0, len(families))
	for n := range families {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FamilyInfo describes one family for listings and docs.
type FamilyInfo struct {
	Name string
	Doc  string
	// Knobs formats as "name=default [min, max]" per knob.
	Knobs []string
}

// Families describes every registered family in name order.
func Families() []FamilyInfo {
	out := make([]FamilyInfo, 0, len(families))
	for _, n := range FamilyNames() {
		f := families[n]
		info := FamilyInfo{Name: f.name, Doc: f.doc}
		for _, k := range f.knobs {
			info.Knobs = append(info.Knobs, fmt.Sprintf("%s=%d [%d, %d]", k.name, k.def, k.min, k.max))
		}
		out = append(out, info)
	}
	return out
}

// srcBase and outBase are the fixed data-segment origins generated
// programs use; they match the built-in kernels' layout so nothing ever
// collides with the 0x3F000 params block.
const (
	srcBase = 0x40000
	outBase = 0x60000
)

// stream: strided array traversal — load, accumulate, optionally store
// back, advance. The working set (elems), access stride, number of
// independent accumulator lanes (unrolled in the loop body) and
// write-back toggle span memory-bound streaming through ILP-rich
// blocked reduction.
var _ = registerFamily(&familyDef{
	name:         "stream",
	doc:          "strided array sweep: loads feed accumulator lanes, optional write-back",
	defaultScale: 8,
	knobs: []knob{
		{"elems", 2048, 64, 16384, "array length in 8-byte words"},
		{"stride", 1, 1, 64, "access stride in words"},
		{"accs", 1, 1, 4, "independent accumulator lanes (body unroll)"},
		{"writes", 0, 0, 1, "1 = store each lane's sum back"},
	},
	classify: func(p map[string]int64) string {
		// A small working set feeding several independent lanes is
		// compute-shaped; everything else is streaming memory traffic.
		if p["elems"] <= 256 && p["accs"] >= 2 {
			return workloads.ClassILP
		}
		return workloads.ClassMemory
	},
	emit: func(p map[string]int64, seed uint64) emitted {
		elems, stride, accs, writes := p["elems"], p["stride"], p["accs"], p["writes"]
		iters := elems / (stride * accs)
		if iters < 1 {
			iters = 1
		}
		var b strings.Builder
		fmt.Fprintf(&b, "    ldi src -> r1\n    ldq [r28+8] -> r2       ; %d sweep iterations\n", iters)
		for j := int64(0); j < accs; j++ {
			fmt.Fprintf(&b, "    ldi 0 -> r%d\n", 12+j)
		}
		b.WriteString("loop:\n")
		for j := int64(0); j < accs; j++ {
			off := j * stride * 8
			fmt.Fprintf(&b, "    ldq [r1+%d] -> r%d\n", off, 4+j)
			fmt.Fprintf(&b, "    add r%d, r%d -> r%d\n", 12+j, 4+j, 12+j)
			if writes != 0 {
				fmt.Fprintf(&b, "    stq r%d -> [r1+%d]\n", 12+j, off)
			}
		}
		fmt.Fprintf(&b, "    add r1, %d -> r1\n", accs*stride*8)
		b.WriteString("    sub r2, 1 -> r2\n    bne r2, loop\n")
		for j := int64(0); j < accs; j++ {
			fmt.Fprintf(&b, "    add r19, r%d -> r19\n", 12+j)
		}
		r := workloads.NewRNG(seed)
		data := fmt.Sprintf(".org %#x\n.data src\n%s", srcBase,
			workloads.Quads(int(elems), func(int) uint64 { return r.N(256) }))
		perIter := uint64(accs)*(2+uint64(writes)) + 3
		return emitted{
			body:    b.String(),
			data:    data,
			params:  []uint64{uint64(iters)},
			bodyMax: 2 + uint64(accs) + uint64(iters)*perIter + uint64(accs),
		}
	},
})

// chase: serial pointer chasing around a full-cycle permutation of the
// node table — every load's address is the previous load's value, so
// performance is pure memory latency. nodes sets the working set,
// hops the chase depth per outer trip.
var _ = registerFamily(&familyDef{
	name:         "chase",
	doc:          "pointer chase over a full-cycle permutation (serial load latency)",
	defaultScale: 8,
	knobs: []knob{
		{"nodes", 1024, 16, 16384, "nodes in the chase ring"},
		{"hops", 4096, 16, 65536, "pointer hops per outer trip"},
	},
	classify: func(map[string]int64) string { return workloads.ClassMemory },
	emit: func(p map[string]int64, seed uint64) emitted {
		nodes, hops := int(p["nodes"]), p["hops"]
		// A Fisher-Yates permutation visited in order is a single
		// n-cycle: chain[perm[k]] points at perm[k+1].
		r := workloads.NewRNG(seed)
		perm := make([]int, nodes)
		for i := range perm {
			perm[i] = i
		}
		for i := nodes - 1; i > 0; i-- {
			j := int(r.N(uint64(i + 1)))
			perm[i], perm[j] = perm[j], perm[i]
		}
		next := make([]uint64, nodes)
		for k := 0; k < nodes; k++ {
			next[perm[k]] = uint64(srcBase + 8*perm[(k+1)%nodes])
		}
		body := `    ldi chain -> r1
    ldq [r28+8] -> r2       ; hops
hop:
    ldq [r1] -> r1
    sub r2, 1 -> r2
    bne r2, hop
    add r19, r1 -> r19
`
		data := fmt.Sprintf(".org %#x\n.data chain\n%s", srcBase,
			workloads.Quads(nodes, func(i int) uint64 { return next[i] }))
		return emitted{
			body:    body,
			data:    data,
			params:  []uint64{uint64(hops)},
			bodyMax: 2 + uint64(hops)*3 + 1,
		}
	},
})

// branchy: a scan over random data with data-dependent forward
// branches. bias sets the per-site taken probability of the underlying
// data bits (50 is maximally unpredictable), sites the number of
// independent branch sites per element, work the size of each taken
// arm.
var _ = registerFamily(&familyDef{
	name:         "branchy",
	doc:          "data-dependent forward branches over a random table (bias, sites, arm work)",
	defaultScale: 8,
	knobs: []knob{
		{"elems", 2048, 16, 8192, "elements scanned per outer trip"},
		{"bias", 50, 0, 100, "percent of elements whose branch bit is set"},
		{"sites", 2, 1, 4, "independent branch sites per element"},
		{"work", 2, 1, 8, "ALU instructions in each taken arm"},
	},
	classify: func(map[string]int64) string { return workloads.ClassBranchy },
	emit: func(p map[string]int64, seed uint64) emitted {
		elems, bias, sites, work := p["elems"], p["bias"], p["sites"], p["work"]
		var b strings.Builder
		b.WriteString("    ldi src -> r1\n    ldq [r28+8] -> r2       ; elements\nloop:\n    ldq [r1] -> r4\n")
		r := workloads.NewRNG(seed)
		for s := int64(0); s < sites; s++ {
			fmt.Fprintf(&b, "    and r4, %d -> r5\n    beq r5, skip%d\n", int64(1)<<s, s)
			for w := int64(0); w < work; w++ {
				c := 1 + r.N(255)
				if w%2 == 0 {
					fmt.Fprintf(&b, "    add r19, %d -> r19\n", c)
				} else {
					fmt.Fprintf(&b, "    xor r19, %d -> r19\n", c)
				}
			}
			fmt.Fprintf(&b, "skip%d:\n", s)
		}
		b.WriteString("    add r1, 8 -> r1\n    sub r2, 1 -> r2\n    bne r2, loop\n")
		data := fmt.Sprintf(".org %#x\n.data src\n%s", srcBase,
			workloads.Quads(int(elems), func(int) uint64 {
				var w uint64
				for s := int64(0); s < sites; s++ {
					if r.N(100) < uint64(bias) {
						w |= 1 << s
					}
				}
				return w
			}))
		perElem := 1 + uint64(sites)*(2+uint64(work)) + 3
		return emitted{
			body:    b.String(),
			data:    data,
			params:  []uint64{uint64(elems)},
			bodyMax: 2 + uint64(elems)*perElem,
		}
	},
})

// ilp: pure register arithmetic over several independent chains,
// interleaved round-robin so a wide machine can issue them in parallel.
// chains sets the parallelism, length the ops per chain per iteration,
// muls the share of (long-latency) multiplies in the op mix.
var _ = registerFamily(&familyDef{
	name:         "ilp",
	doc:          "independent register-arithmetic chains, round-robin interleaved",
	defaultScale: 8,
	knobs: []knob{
		{"chains", 4, 1, 8, "independent dependence chains"},
		{"length", 4, 1, 8, "ops per chain per iteration"},
		{"iters", 512, 16, 4096, "iterations per outer trip"},
		{"muls", 0, 0, 100, "percent of ops that are multiplies"},
	},
	classify: func(p map[string]int64) string {
		if p["chains"] >= 2 {
			return workloads.ClassILP
		}
		return workloads.ClassMixed
	},
	emit: func(p map[string]int64, seed uint64) emitted {
		chains, length, iters, muls := p["chains"], p["length"], p["iters"], p["muls"]
		r := workloads.NewRNG(seed)
		var b strings.Builder
		b.WriteString("    ldq [r28+8] -> r2       ; iterations\n")
		for c := int64(0); c < chains; c++ {
			fmt.Fprintf(&b, "    ldi %d -> r%d\n", 1+r.N(255), 4+c)
		}
		b.WriteString("loop:\n")
		for l := int64(0); l < length; l++ {
			for c := int64(0); c < chains; c++ {
				reg := 4 + c
				cst := 1 + r.N(255)
				switch {
				case r.N(100) < uint64(muls):
					fmt.Fprintf(&b, "    mul r%d, %d -> r%d\n", reg, 1+cst%7, reg)
				case (l+c)%2 == 0:
					fmt.Fprintf(&b, "    add r%d, %d -> r%d\n", reg, cst, reg)
				default:
					fmt.Fprintf(&b, "    xor r%d, %d -> r%d\n", reg, cst, reg)
				}
			}
		}
		b.WriteString("    sub r2, 1 -> r2\n    bne r2, loop\n")
		for c := int64(0); c < chains; c++ {
			fmt.Fprintf(&b, "    add r19, r%d -> r19\n", 4+c)
		}
		return emitted{
			body:    b.String(),
			params:  []uint64{uint64(iters)},
			bodyMax: 1 + uint64(chains) + uint64(iters)*(uint64(chains*length)+2) + uint64(chains),
		}
	},
})
