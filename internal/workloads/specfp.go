package workloads

import "fmt"

// The SPECfp-like kernels use the floating-point register file and
// pipeline. FP values are never tracked symbolically (the CP/RA table
// covers integer registers only, §2.5.2), but their *addresses* are
// integer induction chains — so SPECfp shows high address generation and
// load elimination with moderate early execution, matching Table 3.

// Amp models ammp: pairwise force accumulation over a small particle set
// that is re-read every timestep — strided FP loads, multiply-add chains.
var Amp = register(&Benchmark{
	Name:         "amp",
	Suite:        SPECfp,
	Class:        ClassMemory,
	Notes:        "pairwise force accumulation, re-read particle arrays",
	DefaultScale: 400,
	src: func(scale int) string {
		r := NewRNG(0xA39)
		pos := floatQuads(64, func(i int) float64 {
			return float64(r.Next()%1000)/250 + 0.5
		})
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; timesteps
    fldq [r28+16] -> f10    ; coupling constant
    ldi 0 -> r19
step:
    ldi pos -> r1
    ldq [r28+8] -> r2       ; particles
    fldq [r28+24] -> f1     ; force accumulator = 0.0
body:
    fldq [r1] -> f2         ; x_i
    fldq [r1+8] -> f3       ; x_{i+1}
    fsub f2, f3 -> f4       ; dx
    fmul f4, f4 -> f5       ; dx^2
    fmul f5, f10 -> f6
    fadd f1, f6 -> f1
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, body
    ; fold the force into an integer checksum
    ftoi f1 -> r3
    add r19, r3 -> r19
    sub r20, 1 -> r20
    bne r20, step
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 63, 4602678819172646912, 0   ; 0.5 as float bits, 0.0
.org 0x40000
.data pos
%s
.data result
.quad 0
`, scale, pos)
	},
})

// App models applu: a banded lower-solve sweep — each row combines the
// previous row's freshly stored result (store forwarding across rows)
// with coefficient loads, plus an occasional divide.
var App = register(&Benchmark{
	Name:         "app",
	Suite:        SPECfp,
	Class:        ClassMemory,
	Notes:        "banded forward solve, row results stored then reloaded",
	DefaultScale: 150,
	src: func(scale int) string {
		r := NewRNG(0xA6B)
		coef := floatQuads(128, func(int) float64 {
			return 0.25 + float64(r.Next()%100)/400
		})
		rhs := floatQuads(128, func(int) float64 {
			return 1 + float64(r.Next()%50)/50
		})
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; sweeps
    ldi 0 -> r19
sweep:
    ldi coef -> r1
    ldi rhs -> r2
    ldi sol -> r3
    ldq [r28+8] -> r4       ; rows - 1
    ; sol[0] = rhs[0]
    fldq [r2] -> f1
    fstq f1 -> [r3]
row:
    add r1, 8 -> r1
    add r2, 8 -> r2
    add r3, 8 -> r3
    fldq [r3-8] -> f2       ; previous solution (just stored)
    fldq [r1] -> f3         ; band coefficient
    fldq [r2] -> f4         ; rhs
    fmul f2, f3 -> f5
    fsub f4, f5 -> f6
    fstq f6 -> [r3]
    sub r4, 1 -> r4
    bne r4, row
    ; normalize once per sweep with a divide
    fldq [r3] -> f7
    fldq [r28+16] -> f8
    fdiv f7, f8 -> f9
    ftoi f9 -> r5
    add r19, r5 -> r19
    sub r20, 1 -> r20
    bne r20, sweep
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 127, 4611686018427387904   ; 2.0
.org 0x40000
.data coef
%s
.data rhs
%s
.org 0x44000
.data sol
.space 1024
.data result
.quad 0
`, scale, coef, rhs)
	},
})

// Art models art: F1-layer neural matching — two small weight vectors
// (64 entries each, MBC-resident) scanned every input presentation.
var Art = register(&Benchmark{
	Name:         "art",
	Suite:        SPECfp,
	Class:        ClassILP,
	Notes:        "neural F1 match over two MBC-resident 64-entry vectors",
	DefaultScale: 400,
	src: func(scale int) string {
		r := NewRNG(0xA47)
		w1 := floatQuads(64, func(int) float64 { return float64(r.Next()%100) / 100 })
		w2 := floatQuads(64, func(int) float64 { return float64(r.Next()%100) / 100 })
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; presentations
    ldi 0 -> r19
present:
    ldi wb -> r1
    ldi wt -> r2
    ldq [r28+8] -> r3       ; neurons
    fldq [r28+16] -> f1     ; activation accumulator = 0
neuron:
    fldq [r1] -> f2         ; bottom-up weight
    fldq [r2] -> f3         ; top-down weight
    fmul f2, f3 -> f4
    fadd f1, f4 -> f1
    add r1, 8 -> r1
    add r2, 8 -> r2
    sub r3, 1 -> r3
    bne r3, neuron
    ftoi f1 -> r4
    add r19, r4 -> r19
    sub r20, 1 -> r20
    bne r20, present
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 64, 0
.org 0x40000
.data wb
%s
.data wt
%s
.data result
.quad 0
`, scale, w1, w2)
	},
})

// Eqk models equake: sparse matrix-vector multiply — integer index loads
// steering indirect FP loads whose addresses are unknown at rename.
var Eqk = register(&Benchmark{
	Name:         "eqk",
	Suite:        SPECfp,
	Class:        ClassMemory,
	Notes:        "sparse MVM with indirect (index-load-driven) accesses",
	DefaultScale: 70,
	src: func(scale int) string {
		r := NewRNG(0xE9C)
		idx := Quads(256, func(int) uint64 { return (r.Next() % 128) * 8 })
		vals := floatQuads(256, func(int) float64 { return float64(r.Next()%1000) / 500 })
		x := floatQuads(128, func(int) float64 { return float64(r.Next()%100) / 100 })
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; iterations
    ldi xvec -> r27
    ldi 0 -> r19
iter:
    ldi idx -> r1
    ldi vals -> r2
    ldq [r28+8] -> r3       ; nonzeros
    fldq [r28+16] -> f1     ; dot accumulator
nz:
    ldq [r1] -> r4          ; column offset (bytes)
    add r27, r4 -> r5       ; r27 = xvec base (hoisted)
    fldq [r5] -> f2         ; x[col] — indirect
    fldq [r2] -> f3         ; A value
    fmul f2, f3 -> f4
    fadd f1, f4 -> f1
    add r1, 8 -> r1
    add r2, 8 -> r2
    sub r3, 1 -> r3
    bne r3, nz
    ftoi f1 -> r6
    add r19, r6 -> r19
    sub r20, 1 -> r20
    bne r20, iter
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 256, 0
.org 0x40000
.data idx
%s
.data vals
%s
.org 0x44000
.data xvec
%s
.data result
.quad 0
`, scale, idx, vals, x)
	},
})

// Msa models mesa: vertex transformation by a 4x4 matrix that is
// reloaded for every vertex — 16 MBC-resident matrix loads per vertex,
// FP multiply-add chains.
var Msa = register(&Benchmark{
	Name:         "msa",
	Suite:        SPECfp,
	Class:        ClassILP,
	Notes:        "4x4 vertex transform, matrix reloaded per vertex",
	DefaultScale: 120,
	src: func(scale int) string {
		r := NewRNG(0x35A)
		mat := floatQuads(16, func(i int) float64 {
			if i%5 == 0 {
				return 1
			}
			return float64(r.Next()%100) / 1000
		})
		verts := floatQuads(256, func(int) float64 { return float64(r.Next()%2000)/100 - 10 })
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; passes
    ldi 0 -> r19
pass:
    ldi verts -> r1
    ldq [r28+8] -> r2       ; vertex count (x,y,z,w quads)
vert:
    fldq [r1] -> f1         ; x
    fldq [r1+8] -> f2       ; y
    fldq [r1+16] -> f3      ; z
    fldq [r1+24] -> f4      ; w
    ; out.x = m00*x + m01*y + m02*z + m03*w
    ldi mat -> r3
    fldq [r3] -> f5
    fmul f5, f1 -> f10
    fldq [r3+8] -> f6
    fmul f6, f2 -> f11
    fadd f10, f11 -> f10
    fldq [r3+16] -> f7
    fmul f7, f3 -> f12
    fadd f10, f12 -> f10
    fldq [r3+24] -> f8
    fmul f8, f4 -> f13
    fadd f10, f13 -> f10
    ; out.y = m10*x + m11*y (abbreviated second row)
    fldq [r3+32] -> f5
    fmul f5, f1 -> f14
    fldq [r3+40] -> f6
    fmul f6, f2 -> f15
    fadd f14, f15 -> f14
    fadd f10, f14 -> f16
    ftoi f16 -> r4
    add r19, r4 -> r19
    add r1, 32 -> r1
    sub r2, 1 -> r2
    bne r2, vert
    sub r20, 1 -> r20
    bne r20, pass
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 64
.org 0x40000
.data mat
%s
.data verts
%s
.data result
.quad 0
`, scale, mat, verts)
	},
})

// Mgd models mgrid: a 3-D 7-point stencil over a 16^3 grid (32KB, far
// beyond the MBC) — long strided address chains, high address
// generation, little load elimination.
var Mgd = register(&Benchmark{
	Name:         "mgd",
	Suite:        SPECfp,
	Class:        ClassMemory,
	Notes:        "7-point stencil over a 32KB grid (exceeds MBC)",
	DefaultScale: 4,
	src: func(scale int) string {
		r := NewRNG(0x36D)
		grid := floatQuads(4096, func(int) float64 { return float64(r.Next()%1000) / 100 })
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; smoothing passes
    ldi 0 -> r19
pass:
    ldi grid -> r1
    add r1, 2184 -> r1      ; skip first plane+row+col: (16*16+16+1)*8
    ldi out -> r3
    add r3, 2184 -> r3
    ldq [r28+8] -> r2       ; interior points
pt:
    fldq [r1] -> f1         ; center
    fldq [r1-8] -> f2       ; west
    fldq [r1+8] -> f3       ; east
    fldq [r1-128] -> f4     ; north (16*8)
    fldq [r1+128] -> f5     ; south
    fldq [r1-2048] -> f6    ; down (16*16*8)
    fldq [r1+2048] -> f7    ; up
    fadd f2, f3 -> f8
    fadd f4, f5 -> f9
    fadd f6, f7 -> f10
    fadd f8, f9 -> f11
    fadd f11, f10 -> f11
    fldq [r28+16] -> f12    ; smoothing weight
    fmul f11, f12 -> f11
    fsub f11, f1 -> f13
    fstq f13 -> [r3]
    add r1, 8 -> r1
    add r3, 8 -> r3
    sub r2, 1 -> r2
    bne r2, pt
    ftoi f13 -> r4
    add r19, r4 -> r19
    sub r20, 1 -> r20
    bne r20, pass
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 3500, 4595172819793696085   ; ~0.1666 as float bits
.org 0x40000
.data grid
%s
.org 0x50000
.data out
.space 32768
.data result
.quad 0
`, scale, grid)
	},
})
