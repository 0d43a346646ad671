package workloads

import "fmt"

// The mediabench-like kernels are small fixed-point signal-processing
// loops over tiny state arrays — exactly the code the paper finds most
// optimizer-friendly (Table 3: 84% address generation, 47% of loads
// removed). untst reproduces the paper's §5.2 outlier analysis: the GSM
// Short_term_synthesis_filtering routine iterates over two 8-entry
// arrays that fit trivially in the MBC.

// G721d models g721 decode: an ADPCM predictor whose two small state
// arrays (6 diff terms + 2 poles) are updated and re-read every sample.
var G721d = register(&Benchmark{
	Name:         "g721d",
	Suite:        Mediabench,
	Class:        ClassMixed,
	Notes:        "ADPCM decode predictor, 8-word state re-read per sample",
	DefaultScale: 16,
	src: func(scale int) string {
		scale *= 150 // one scale unit = 150 samples
		codes := randQuads(256, 0x6D1, 16)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; samples
    ldi codes -> r25        ; loop-invariant bases
    ldi dqhist -> r26
    ldi bcoef -> r27
    ldi 0 -> r19
    ldi 0 -> r21            ; code index (bytes)
sample:
    ; load the 4-bit code for this sample
    add r25, r21 -> r1
    ldq [r1] -> r2          ; code 0..15
    ; dequantize: dq = (code*2+1) << 3
    sll r2, 1 -> r3
    add r3, 1 -> r3
    sll r3, 3 -> r3
    ; predictor: se = sum(b[i]*dq[i]) over 6 diff terms
    mov r26 -> r4
    mov r27 -> r5
    ldq [r28+8] -> r6       ; 6 taps
    ldi 0 -> r7             ; se
tap:
    ldq [r4] -> r8
    ldq [r5] -> r9
    add r4, 8 -> r4
    add r5, 8 -> r5
    sub r6, 1 -> r6
    mul r8, r9 -> r10
    sra r10, 14 -> r10
    add r7, r10 -> r7
    bne r6, tap
    ; reconstruct and shift the history (stores then reloads next sample)
    add r7, r3 -> r11       ; sr
    mov r26 -> r4
    ldq [r4+32] -> r12      ; shift: h[5]=h[4] ... h[1]=h[0], h[0]=dq
    stq r12 -> [r4+40]
    ldq [r4+24] -> r12
    stq r12 -> [r4+32]
    ldq [r4+16] -> r12
    stq r12 -> [r4+24]
    ldq [r4+8] -> r12
    stq r12 -> [r4+16]
    ldq [r4] -> r12
    stq r12 -> [r4+8]
    stq r3 -> [r4]
    add r19, r11 -> r19
    ; next code (wrap at 256 entries)
    add r21, 8 -> r21
    and r21, 2047 -> r21
    sub r20, 1 -> r20
    bne r20, sample
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 6
.org 0x40000
.data codes
%s
.data dqhist
.quad 0, 0, 0, 0, 0, 0
.data bcoef
.quad 28, -20, 12, -8, 4, 2
.data result
.quad 0
`, scale, codes)
	},
})

// G721e models g721 encode: the same predictor plus a quantizer search
// over a tiny breakpoint table — short data-dependent branch ladders.
var G721e = register(&Benchmark{
	Name:         "g721e",
	Suite:        Mediabench,
	Class:        ClassBranchy,
	Notes:        "ADPCM encode: predictor plus quantizer breakpoint search",
	DefaultScale: 30,
	src: func(scale int) string {
		scale *= 200 // one scale unit = 200 samples
		pcm := randQuads(256, 0x6E2, 4096)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; samples
    ldi pcm -> r25
    ldi 0 -> r19
    ldi 0 -> r21
    ; the 4-term history lives in registers r5..r8, as a register
    ; allocator would place it; only the output stream touches memory
    ldi 0 -> r5
    ldi 0 -> r6
    ldi 0 -> r7
    ldi 0 -> r8
    ldi outbuf -> r27
sample:
    add r25, r21 -> r1      ; r25 = pcm base (hoisted)
    ldq [r1] -> r2          ; input sample
    add r5, r6 -> r9
    add r7, r8 -> r10
    add r9, r10 -> r9
    sra r9, 2 -> r9         ; se
    sub r2, r9 -> r11       ; d = x - se
    ; quantize |d| against breakpoints 80/320/1280
    mov r11 -> r12
    bge r12, dpos
    sub zero, r12 -> r12
dpos:
    ldi 0 -> r13
    cmplt r12, 80 -> r14
    bne r14, quantized
    ldi 1 -> r13
    cmplt r12, 320 -> r14
    bne r14, quantized
    ldi 2 -> r13
    cmplt r12, 1280 -> r14
    bne r14, quantized
    ldi 3 -> r13
quantized:
    add r19, r13 -> r19
    ; rotate the register history and emit the code
    mov r7 -> r8
    mov r6 -> r7
    mov r5 -> r6
    sll r13, 5 -> r16
    add r9, r16 -> r5
    add r27, r21 -> r17
    stq r13 -> [r17]
    add r21, 8 -> r21
    and r21, 2047 -> r21
    sub r20, 1 -> r20
    bne r20, sample
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d
.org 0x40000
.data pcm
%s
.org 0x42000
.data outbuf
.space 2048
.data result
.quad 0
`, scale, pcm)
	},
})

// Mpg2d models mpeg2 decode: a row-wise 8x8 inverse-DCT-like pass — the
// 64-word block and 8-word coefficient row are stored and re-read pass
// after pass.
var Mpg2d = register(&Benchmark{
	Name:         "mpg2d",
	Suite:        Mediabench,
	Class:        ClassILP,
	Notes:        "8x8 block IDCT-like row passes, block resident in MBC",
	DefaultScale: 300,
	src: func(scale int) string {
		block := randQuads(64, 0x3D1, 256)
		cosrow := Quads(8, func(i int) uint64 { return uint64(64 - 7*i) })
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; blocks
    ldi 0 -> r19
block:
    ldi blk -> r25          ; loop-invariant bases
    ldi cosrow -> r26
    ldi 0 -> r1             ; row offset (bytes)
rows:
    add r25, r1 -> r2
    mov r26 -> r3
    ldq [r28+8] -> r4       ; 8 columns
    ldi 0 -> r5             ; row accumulator
col:
    ldq [r2] -> r6
    ldq [r3] -> r7
    add r2, 8 -> r2
    add r3, 8 -> r3
    sub r4, 1 -> r4
    mul r6, r7 -> r8
    sra r8, 6 -> r8
    add r5, r8 -> r5
    bne r4, col
    ; write the row result back into column 0 (feeds the next pass)
    add r25, r1 -> r2
    stq r5 -> [r2]
    add r19, r5 -> r19
    add r1, 64 -> r1
    cmplt r1, 512 -> r9
    bne r9, rows
    sub r20, 1 -> r20
    bne r20, block
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 8
.org 0x40000
.data blk
%s
.data cosrow
%s
.data result
.quad 0
`, scale, block, cosrow)
	},
})

// Mpg2e models mpeg2 encode: motion-estimation SAD over an 8x8 block
// against a search window — absolute differences with data-dependent
// sign branches.
var Mpg2e = register(&Benchmark{
	Name:         "mpg2e",
	Suite:        Mediabench,
	Class:        ClassMixed,
	Notes:        "motion-estimation SAD, 8x8 block vs search window",
	DefaultScale: 340,
	src: func(scale int) string {
		ref := randQuads(64, 0x3E1, 256)
		win := randQuads(128, 0x3E2, 256) // window sized to stay MBC-resident
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; search positions
    ldi 0 -> r19
    ldi 0 -> r21            ; window offset
search:
    ldi refblk -> r1
    ldi win -> r2
    add r2, r21 -> r2
    ldq [r28+8] -> r3       ; 64 pixels
    ldi 0 -> r4             ; sad
pix:
    ldq [r1] -> r5
    ldq [r2] -> r6
    add r1, 8 -> r1         ; independent updates space the abs-diff
    add r2, 8 -> r2         ; chain across rename bundles
    sub r3, 1 -> r3
    sub r5, r6 -> r7
    bge r7, abspos
    sub zero, r7 -> r7
abspos:
    add r4, r7 -> r4
    bne r3, pix
    add r19, r4 -> r19
    add r21, 8 -> r21
    and r21, 511 -> r21     ; wrap within the MBC-resident window
    sub r20, 1 -> r20
    bne r20, search
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 64
.org 0x40000
.data refblk
%s
.data win
%s
.data result
.quad 0
`, scale, ref, win)
	},
})

// Untst reproduces the paper's mediabench outlier (§5.2): GSM
// Short_term_synthesis_filtering — an inner loop over two 8-entry arrays
// (reflection coefficients rrp[] and filter state v[]) run for 13..120
// samples per call. Both arrays fit trivially in the MBC, so after the
// first sample every array access is eliminated.
var Untst = register(&Benchmark{
	Name:         "untst",
	Suite:        Mediabench,
	Class:        ClassMemory,
	Notes:        "GSM short-term synthesis filter: two 8-entry arrays, 13..120-sample calls",
	DefaultScale: 30,
	src: func(scale int) string {
		wt := randQuads(256, 0x071, 16384)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; filter calls
    ldi 0 -> r19
    ldi 0 -> r22            ; call counter for k variation
    ldi wtbuf -> r25        ; loop-invariant bases live in registers,
    ldi rrp -> r26          ; as the GSM code's compiled form keeps them
    ldi vbuf -> r27
call:
    ; k = 13 + (call*31 %% 108): iteration counts vary 13..120 as in GSM
    mul r22, 31 -> r1
    ldi 108 -> r2
    rem r1, r2 -> r1
    add r1, 13 -> r21       ; samples this call
    ldi 0 -> r23            ; input index
sampl:
    add r25, r23 -> r1
    ldq [r1] -> r2          ; sri = *wt
    ; for i = 8; i--; { sri -= rrp[i]*v[i]>>12; v[i+1] = v[i] + rrp[i]*sri>>12 }
    add r26, 56 -> r4       ; &rrp[7]
    add r27, 56 -> r6       ; &v[7]
    ldi 8 -> r3
filt:
    ldq [r4] -> r5          ; rrp[i] (a power of two: GSM's scaled taps)
    ldq [r6] -> r7          ; v[i]
    sub r4, 8 -> r4         ; independent pointer work spaces the
    sub r3, 1 -> r3         ; dependent mul/sub chain across bundles
    mul r5, r7 -> r8
    sra r8, 12 -> r8
    sub r2, r8 -> r2        ; sri -= rrp[i]*v[i] >> 12
    mul r5, r2 -> r9
    sra r9, 12 -> r9
    add r7, r9 -> r10
    stq r10 -> [r6+8]       ; v[i+1] = v[i] + rrp[i]*sri >> 12
    sub r6, 8 -> r6
    bne r3, filt
    stq r2 -> [r27]         ; v[0] = sri
    add r19, r2 -> r19
    add r23, 8 -> r23
    and r23, 2047 -> r23
    sub r21, 1 -> r21
    bne r21, sampl
    add r22, 1 -> r22
    sub r20, 1 -> r20
    bne r20, call
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d
.org 0x40000
.data wtbuf
%s
.data rrp
.quad 4096, 3277, 1638, 819, 2458, 1311, 655, 328
.data vbuf
.quad 0, 0, 0, 0, 0, 0, 0, 0, 0
.data result
.quad 0
`, scale, wt)
	},
})

// Tst models toast (GSM encode): autocorrelation of a 160-sample window
// — multiply-accumulate over a buffer slightly exceeding the MBC.
var Tst = register(&Benchmark{
	Name:         "tst",
	Suite:        Mediabench,
	Class:        ClassILP,
	Notes:        "GSM LPC autocorrelation over a 160-sample window",
	DefaultScale: 16,
	src: func(scale int) string {
		pcm := randQuads(256, 0x072, 32768)
		return fmt.Sprintf(`
start:
    ldi params -> r28
    ldq [r28] -> r20        ; frames
    ldi 0 -> r19
frame:
    ldi 0 -> r1             ; lag*8, 0..8 lags
lag:
    ldi pcm -> r2           ; s[i]
    ldi pcm -> r3
    add r3, r1 -> r3        ; s[i+lag]
    ldq [r28+8] -> r4       ; 240 products
    ldi 0 -> r5             ; acf accumulator
mac:
    ldq [r2] -> r6
    ldq [r3] -> r7
    mul r6, r7 -> r8
    sra r8, 12 -> r8
    add r5, r8 -> r5
    add r2, 8 -> r2
    add r3, 8 -> r3
    sub r4, 1 -> r4
    bne r4, mac
    add r19, r5 -> r19
    add r1, 8 -> r1
    cmplt r1, 72 -> r9      ; 9 lags
    bne r9, lag
    sub r20, 1 -> r20
    bne r20, frame
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad %d, 240
.org 0x40000
.data pcm
%s
.data result
.quad 0
`, scale, pcm)
	},
})
