package workloads

import "fmt"

// Shared conventions: loop trip counts and seeds are loaded from the
// `params` block rather than encoded as immediates — like the paper's
// motivating example ("the loop counter is initialized to some value that
// is not statically computable"), this makes induction chains symbolic
// until value feedback converts them, exercising reassociation, early
// execution and early branch resolution the way compiled code would.

// Bzp models bzip2: run-length compression of byte-granular data with
// long runs — data-dependent but locally predictable branches, a working
// set (8KB) well beyond the MBC.
var Bzp = register(&Benchmark{
	Name:         "bzp",
	Suite:        SPECint,
	Class:        ClassBranchy,
	Notes:        "run-length compression scan, 8KB working set",
	DefaultScale: 24,
	src: func(scale int) string {
		r := NewRNG(0xB21)
		// Byte data with runs: values change with p=1/6.
		cur := r.Next() % 40
		data := Quads(1024, func(int) uint64 {
			if r.Next()%6 == 0 {
				cur = r.Next() % 40
			}
			return cur
		})
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; outer passes
    ldi 0 -> r19            ; checksum
outer:
    ldi src -> r1
    ldq [r28+8] -> r2       ; element count
    ldi out -> r3
    ldq [r1] -> r4          ; prev value
    ldi 1 -> r5             ; run length
    add r1, 8 -> r1
    sub r2, 1 -> r2
scan:
    ldq [r1] -> r6
    sub r6, r4 -> r7
    beq r7, same
    stq r4 -> [r3]          ; emit (value, runlen)
    stq r5 -> [r3+8]
    add r3, 16 -> r3
    add r19, r5 -> r19
    mov r6 -> r4
    ldi 1 -> r5
    br next
same:
    add r5, 1 -> r5
next:
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, scan
    sub r20, 1 -> r20
    bne r20, outer
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 1024
.org 0x40000
.data src
%s
.org 0x60000
.data out
.space 32768
.data result
.quad 0
`, scale, data)
	},
})

// Cra models crafty: board evaluation over a 64-square board that fits
// the MBC, with piece-dependent control flow and indirect bonus-table
// lookups whose addresses depend on loaded data.
var Cra = register(&Benchmark{
	Name:         "cra",
	Suite:        SPECint,
	Class:        ClassMixed,
	Notes:        "chess board evaluation, MBC-resident board, indirect table lookups",
	DefaultScale: 300,
	src: func(scale int) string {
		// 256 squares (a 4-board search window): larger than the MBC, so
		// board loads stay live traffic rather than becoming constants.
		board := randQuads(256, 0xC4A, 13)  // piece codes 0..12
		bonus := randQuads(14*64, 0xB0B, 0) // piece-square values (13 pieces + slack row)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; evaluations
    ldq [r28+8] -> r21      ; LCG state
    ldi 0 -> r19
eval:
    ldi board -> r1
    ldi bonus -> r13        ; loop-invariant table base
    ldq [r28+16] -> r2      ; 64 squares
    ldi 0 -> r3             ; score
    ldi 0 -> r14            ; square index
sq:
    ldq [r1] -> r4          ; piece
    add r1, 8 -> r1         ; independent pointer/index updates space
    add r14, 8 -> r14       ; the piece-dependent chain across bundles
    and r14, 511 -> r14     ; square index folds into one 64-square board
    beq r4, empty
    sll r4, 9 -> r5         ; piece*64*8
    add r5, r14 -> r5       ; + (sq%%64)*8
    add r13, r5 -> r7
    ldq [r7] -> r8          ; bonus[piece*64+sq]
    and r8, 255 -> r8
    add r3, r8 -> r3
empty:
    sub r2, 1 -> r2
    bne r2, sq
    add r19, r3 -> r19
    ; mutate the board: move a pseudo-random piece
    mul r21, 2862933555777941757 -> r21
    add r21, 3037000493 -> r21
    srl r21, 56 -> r9       ; square 0..255
    sll r9, 3 -> r9
    ldi board -> r10
    add r10, r9 -> r10
    ldq [r10] -> r11
    add r11, 1 -> r11
    ; keep piece code in range 0..12
    cmplt r11, 13 -> r12
    bne r12, inrange
    ldi 0 -> r11
inrange:
    stq r11 -> [r10]
    sub r20, 1 -> r20
    bne r20, eval
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 88172645463325252, 256
.org 0x40000
.data board
%s
.org 0x42000
.data bonus
%s
.data result
.quad 0
`, scale, board, bonus)
	},
})

// Eon models eon: fixed-point ray stepping — multiply-heavy dependence
// chains with sparse, well-predicted branches and few memory operations.
var Eon = register(&Benchmark{
	Name:         "eon",
	Suite:        SPECint,
	Class:        ClassILP,
	Notes:        "fixed-point ray marching, complex-ALU bound",
	DefaultScale: 500,
	src: func(scale int) string {
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; rays
    ldi 0 -> r19
ray:
    ldq [r28+8] -> r1       ; pos.x (Q16 fixed point)
    ldq [r28+16] -> r2      ; pos.y
    ldq [r28+24] -> r3      ; dir.x
    ldq [r28+32] -> r4      ; dir.y
    ldq [r28+40] -> r5      ; steps
    ldi 0 -> r17            ; inside-sphere count
march:
    add r1, r3 -> r1
    add r2, r4 -> r2
    mul r1, r1 -> r6        ; x^2 (Q32)
    mul r2, r2 -> r7        ; y^2
    add r6, r7 -> r8
    srl r8, 16 -> r8        ; |p|^2 back to Q16
    ldq [r28+48] -> r9      ; radius^2
    sub r8, r9 -> r10
    bge r10, outside
    add r17, 1 -> r17       ; point is inside: keep marching
outside:
    sub r5, 1 -> r5
    bne r5, march
    add r19, r17 -> r19
    add r19, r8 -> r19
    ; perturb the ray direction
    mul r3, 3 -> r3
    srl r3, 1 -> r3
    xor r3, r4 -> r4
    and r4, 65535 -> r4
    sub r20, 1 -> r20
    bne r20, ray
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 131072, 65536, 1311, 655, 40, 26843545600
.data result
.quad 0
`, scale)
	},
})

// Gap models gap: multi-precision multiplication of 16-word integers —
// carry chains through partial sums that are stored and immediately
// reloaded (store-forwarding food) at counter-derived addresses.
var Gap = register(&Benchmark{
	Name:         "gap",
	Suite:        SPECint,
	Class:        ClassMemory,
	Notes:        "bignum multiply, carry chains with store-to-load partial sums",
	DefaultScale: 24,
	src: func(scale int) string {
		a := randQuads(16, 0x6A9, 0)
		b := randQuads(16, 0x6AB, 0)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; outer multiplies
    ldi 0 -> r19
mulbig:
    ; clear the 32-word result
    ldi res -> r1
    ldq [r28+8] -> r2       ; 32
clr:
    stq zero -> [r1]
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, clr
    ; schoolbook: for i in 0..15: for j in 0..15: res[i+j] += lo; res[i+j+1] += hi
    ldi numa -> r17         ; loop-invariant bases
    ldi numb -> r18
    ldi 0 -> r3             ; i*8
iloop:
    add r17, r3 -> r4
    ldq [r4] -> r5          ; a[i]
    ldi res -> r11
    add r11, r3 -> r11      ; &res[i]
    mov r18 -> r7           ; &b[0]
    ldi 16 -> r6            ; j count
jloop:
    ldq [r7] -> r8          ; b[j]
    add r7, 8 -> r7
    mul r5, r8 -> r9        ; lo
    mulh r5, r8 -> r10      ; hi
    ldq [r11] -> r12        ; res[i+j]
    add r12, r9 -> r13
    stq r13 -> [r11]
    cmpult r13, r9 -> r14   ; carry out
    ldq [r11+8] -> r15
    add r15, r10 -> r15
    add r15, r14 -> r15
    stq r15 -> [r11+8]
    add r11, 8 -> r11
    sub r6, 1 -> r6
    bne r6, jloop
    add r3, 8 -> r3
    cmpult r3, 128 -> r16
    bne r16, iloop
    ; fold result into checksum
    ldi res -> r1
    ldq [r28+8] -> r2
fold:
    ldq [r1] -> r5
    xor r19, r5 -> r19
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, fold
    sub r20, 1 -> r20
    bne r20, mulbig
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 32
.org 0x40000
.data numa
%s
.org 0x40600
.data numb
%s
.org 0x40200
.data res
.space 512
.org 0x41000
.data result
.quad 0
`, scale, a, b)
	},
})

// Gcc models gcc: interpreter-style dispatch through a jump table —
// indirect jumps whose targets come from loads, plus token-stream
// processing with irregular control flow.
var Gcc = register(&Benchmark{
	Name:         "gcc",
	Suite:        SPECint,
	Class:        ClassBranchy,
	Notes:        "token dispatch via loaded jump table (indirect jumps)",
	DefaultScale: 60,
	src: func(scale int) string {
		tokens := randQuads(512, 0x6CC, 8)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; passes
    ldi 0 -> r19
pass:
    ldi tokens -> r1
    ldq [r28+8] -> r2       ; token count
dispatch:
    ldq [r1] -> r3          ; token 0..7
    sll r3, 3 -> r4
    ldi jtab -> r5
    add r5, r4 -> r5
    ldq [r5] -> r6          ; handler PC
    jmp r6
op0:
    add r19, 1 -> r19
    br cont
op1:
    add r19, r3 -> r19
    br cont
op2:
    xor r19, r1 -> r19
    br cont
op3:
    sll r19, 1 -> r19
    br cont
op4:
    srl r19, 1 -> r19
    br cont
op5:
    sub r19, 1 -> r19
    br cont
op6:
    add r19, 7 -> r19
    br cont
op7:
    xor r19, 255 -> r19
cont:
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, dispatch
    sub r20, 1 -> r20
    bne r20, pass
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 512
.org 0x40000
.data jtab
.quad op0, op1, op2, op3, op4, op5, op6, op7
.data tokens
%s
.data result
.quad 0
`, scale, tokens)
	},
})

// Mcf models mcf: the paper's star SPECint benchmark. §5.2 traces its
// gains to sort_basket — quicksort whose partitions shrink until they fit
// the MBC, at which point every array access forwards and the comparison
// chain executes early. This kernel re-sorts a 128-element array (equal
// to the MBC entry count) from a pristine copy, using an explicit stack.
var Mcf = register(&Benchmark{
	Name:         "mcf",
	Suite:        SPECint,
	Class:        ClassMemory,
	Notes:        "iterative quicksort (sort_basket), MBC-sized partitions",
	DefaultScale: 60,
	src: func(scale int) string {
		// 64 elements: the array occupies half the direct-mapped MBC and
		// the stack (placed 0x200 into its own region) the other half,
		// so — as in the paper's sort_basket analysis — partitions stop
		// thrashing the MBC and every access forwards.
		const n = 64
		pristine := randQuads(n, 0x3CF, 1<<40)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; sort count
    ldi 0 -> r19
sortpass:
    ; restore the array from the pristine copy
    ldi pristine -> r1
    ldi arr -> r2
    ldq [r28+8] -> r3       ; n
copy:
    ldq [r1] -> r4
    stq r4 -> [r2]
    add r1, 8 -> r1
    add r2, 8 -> r2
    sub r3, 1 -> r3
    bne r3, copy
    ; push (arr, arr+(n-1)*8)
    ldi stk -> r1
    ldi arr -> r2
    ldi arr -> r3
    add r3, %d -> r3
    stq r2 -> [r1]
    stq r3 -> [r1+8]
    add r1, 16 -> r1
    ldi stk -> r9
qloop:
    sub r1, r9 -> r4
    beq r4, qdone
    sub r1, 16 -> r1
    ldq [r1] -> r2          ; lo
    ldq [r1+8] -> r3        ; hi
    sub r3, r2 -> r4
    ble r4, qloop
    ldq [r3] -> r5          ; pivot = *hi
    sub r2, 8 -> r6         ; i = lo - 8
    mov r2 -> r7            ; j = lo
    ldq [r7] -> r8          ; software-pipelined: current element
ploop:
    ldq [r7+8] -> r14       ; preload next element
    sub r8, r5 -> r10       ; compare current (loaded last iteration)
    add r7, 8 -> r12
    sub r3, r12 -> r13
    bgt r10, pskip
    add r6, 8 -> r6
    ldq [r6] -> r11
    stq r8 -> [r6]
    stq r11 -> [r7]
pskip:
    mov r14 -> r8
    mov r12 -> r7
    bgt r13, ploop
    add r6, 8 -> r6         ; p = i + 8
    ldq [r6] -> r11
    stq r5 -> [r6]
    stq r11 -> [r3]
    ; push (lo, p-8) and (p+8, hi)
    sub r6, 8 -> r10
    stq r2 -> [r1]
    stq r10 -> [r1+8]
    add r1, 16 -> r1
    add r6, 8 -> r10
    stq r10 -> [r1]
    stq r3 -> [r1+8]
    add r1, 16 -> r1
    br qloop
qdone:
    ; fold sorted array into checksum
    ldi arr -> r2
    ldq [r28+8] -> r3
fold:
    ldq [r2] -> r5
    add r19, r5 -> r19
    xor r19, r3 -> r19
    add r2, 8 -> r2
    sub r3, 1 -> r3
    bne r3, fold
    sub r20, 1 -> r20
    bne r20, sortpass
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, %d
.org 0x40000
.data pristine
%s
.org 0x42000
.data arr
.space %d
.org 0x50200
.data stk
.space %d
.data result
.quad 0
`, (n-1)*8, scale, n, pristine, n*8, 4*n*16)
	},
})

// Prl models perlbmk: hashing a word stream and probing a hash table at
// computed (rename-time-unknown) addresses — low address generation, hash
// dependence chains, data-dependent probe branches.
var Prl = register(&Benchmark{
	Name:         "prl",
	Suite:        SPECint,
	Class:        ClassMemory,
	Notes:        "hash loop with computed-address table probes",
	DefaultScale: 70,
	src: func(scale int) string {
		words := randQuads(256, 0x991, 1<<32)
		table := randQuads(1024, 0x992, 2)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; passes
    ldq [r28+8] -> r21      ; hash seed
    ldi htab -> r27
    ldi 0 -> r19
pass:
    ldi words -> r1
    ldq [r28+16] -> r2      ; word count
    mov r21 -> r3           ; h
hash:
    ldq [r1] -> r4
    mul r3, 31 -> r3
    add r3, r4 -> r3
    and r3, 1023 -> r5      ; probe index
    sll r5, 3 -> r5
    add r27, r5 -> r6       ; r27 = htab base (hoisted)
    ldq [r6] -> r7          ; occupied?
    beq r7, miss
    add r19, 1 -> r19
    br hnext
miss:
    stq r4 -> [r6]          ; claim the slot
hnext:
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, hash
    add r19, r3 -> r19
    sub r20, 1 -> r20
    bne r20, pass
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 5381, 256
.org 0x40000
.data words
%s
.org 0x42000
.data htab
%s
.data result
.quad 0
`, scale, words, table)
	},
})

// Twf models twolf: simulated-annealing moves over an 8KB grid with
// LCG-derived cell pairs — computed addresses and ~50/50 accept branches
// that resolve only at execute.
var Twf = register(&Benchmark{
	Name:         "twf",
	Suite:        SPECint,
	Class:        ClassMixed,
	Notes:        "annealing swaps at LCG-computed addresses, unpredictable accepts",
	DefaultScale: 13,
	src: func(scale int) string {
		scale *= 400 // one scale unit = 400 annealing moves
		grid := randQuads(1024, 0x79F, 1<<20)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; moves
    ldq [r28+8] -> r21      ; LCG state
    ldi grid -> r27
    ldi 0 -> r19
move:
    mul r21, 6364136223846793005 -> r21
    add r21, 1442695040888963407 -> r21
    srl r21, 20 -> r1
    and r1, 1023 -> r1      ; cell a
    srl r21, 40 -> r2
    and r2, 1023 -> r2      ; cell b
    sll r1, 3 -> r1
    sll r2, 3 -> r2
    add r27, r1 -> r4       ; r27 = grid base (hoisted)
    add r27, r2 -> r5
    ldq [r4] -> r6
    ldq [r5] -> r7
    sub r6, r7 -> r8        ; cost delta
    blt r8, reject
    stq r7 -> [r4]          ; accept: swap
    stq r6 -> [r5]
    add r19, 1 -> r19
reject:
    sub r20, 1 -> r20
    bne r20, move
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 88172645463325252
.org 0x40000
.data grid
%s
.data result
.quad 0
`, scale, grid)
	},
})

// Vor models vortex: a database-like traversal of an array of 4-word
// records with field validation branches — high address generation
// (strided fields) but a 16KB working set far beyond the MBC.
var Vor = register(&Benchmark{
	Name:         "vor",
	Suite:        SPECint,
	Class:        ClassMixed,
	Notes:        "record traversal with field checks, 16KB working set",
	DefaultScale: 45,
	src: func(scale int) string {
		r := NewRNG(0x40E)
		recs := Quads(2048, func(i int) uint64 {
			if i%4 == 0 {
				return r.Next()%8 + 1 // type tag
			}
			return r.Next() % (1 << 30)
		})
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; passes
    ldi 0 -> r19
pass:
    ldi recs -> r1
    ldq [r28+8] -> r2       ; record count
rec:
    ldq [r1] -> r3          ; type tag
    ldq [r1+8] -> r4        ; key
    ldq [r1+16] -> r5       ; value
    ldq [r1+24] -> r6       ; link
    cmplt r3, 5 -> r7
    beq r7, skiprec
    add r4, r5 -> r8
    xor r8, r6 -> r8
    add r19, r8 -> r19
skiprec:
    add r1, 32 -> r1
    sub r2, 1 -> r2
    bne r2, rec
    sub r20, 1 -> r20
    bne r20, pass
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 512
.org 0x40000
.data recs
%s
.data result
.quad 0
`, scale, recs)
	},
})

// Vpr models vpr: maze-router wavefront expansion — frontier scans with
// cost comparisons, moderate working set, mixed predictability.
var Vpr = register(&Benchmark{
	Name:         "vpr",
	Suite:        SPECint,
	Class:        ClassMixed,
	Notes:        "wavefront cost relaxation over a 32x32 routing grid",
	DefaultScale: 25,
	src: func(scale int) string {
		costs := randQuads(1024, 0x4B6, 100)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; sweeps
    ldi 0 -> r19
sweep:
    ldi grid -> r1
    ldq [r28+8] -> r2       ; interior cells (skip last row/col wrap)
cell:
    ldq [r1] -> r3          ; cost
    ldq [r1+8] -> r4        ; east neighbor
    ldq [r1+256] -> r5      ; south neighbor (32*8)
    add r4, 1 -> r6
    cmplt r6, r3 -> r7
    beq r7, trysouth
    stq r6 -> [r1]          ; relax via east
    add r19, 1 -> r19
    br cnext
trysouth:
    add r5, 1 -> r6
    cmplt r6, r3 -> r7
    beq r7, cnext
    stq r6 -> [r1]          ; relax via south
    add r19, 1 -> r19
cnext:
    add r1, 8 -> r1
    sub r2, 1 -> r2
    bne r2, cell
    sub r20, 1 -> r20
    bne r20, sweep
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 992
.org 0x40000
.data grid
%s
.data result
.quad 0
`, scale, costs)
	},
})
