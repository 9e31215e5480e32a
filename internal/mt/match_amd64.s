#include "textflag.h"
#include "go_asm.h"

// TEMPER is temper on every lane of Y0, with its masks in Y13..Y15.
#define TEMPER \
	VPSRLQ $29, Y0, Y2 \
	VPAND  Y15, Y2, Y2 \
	VPXOR  Y2, Y0, Y0  \
	VPSLLQ $17, Y0, Y2 \
	VPAND  Y14, Y2, Y2 \
	VPXOR  Y2, Y0, Y0  \
	VPSLLQ $37, Y0, Y2 \
	VPAND  Y13, Y2, Y2 \
	VPXOR  Y2, Y0, Y0  \
	VPSRLQ $43, Y0, Y2 \
	VPXOR  Y2, Y0, Y0

// func matchAVX2(state *[312]uint64, i, w int, steps []fillStep, want []int32, dst []float64, groups int) int
//
// A group is four runs of w words, the first at word i. For each step
// it loads the four runs' words at the step's offset into the lanes of
// Y0, tempers them, and tests each word v against the step's wanted
// value with Bound's divisibility test: rotr((v − want)·inv, shr) ≤ m.
// AVX2 has no 64-bit low product, so (v − want)·inv is built from three
// 32-bit products. Y8 collects the lanes whose word lies outside the
// bound's window; the group then stops the routine before it stores
// anything. Y9 collects misses in its lanes' sign bits: a lane misses
// where the rotated word is above m as a signed word or has its top bit
// set, since m < 2⁶³ for every n ≥ 2.
//
// The four words are loaded with VMOVQ and VPINSRQ, two to a 128-bit
// half, not with VPGATHERQQ: on a 2-vCPU Intel Xeon host a gather took
// BenchmarkMatch's two-block row from 5.3 to 7.5 ns per draw.
//
// Registers: DI the group's first word, BX w, R13 a group's bytes, R15
// two runs' bytes, R8/R9 the steps, R10 want, DX dst, R11 groups left.
// Y10 is zero and Y11 holds 1.0 in every lane.
TEXT ·matchAVX2(SB), NOSPLIT, $0-112
	MOVQ state+0(FP), DI
	MOVQ i+8(FP), AX
	LEAQ (DI)(AX*8), DI
	MOVQ w+16(FP), BX
	MOVQ steps_base+24(FP), R8
	MOVQ steps_len+32(FP), R9
	MOVQ want_base+48(FP), R10
	MOVQ dst_base+72(FP), DX
	MOVQ groups+96(FP), R11
	MOVQ BX, R15
	SHLQ $4, R15
	LEAQ (R15)(R15*1), R13

	MOVQ         $0x5555555555555555, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ         $0x71D67FFFEDA60000, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         $0xFFF7EEE000000000, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ         $0x3FF0000000000000, AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	VPXOR        Y10, Y10, Y10

group:
	VPXOR Y9, Y9, Y9
	VPXOR Y8, Y8, Y8
	MOVQ  R8, SI
	MOVQ  R9, CX

step:
	MOVLQSX     fillStep_dst(SI), AX
	LEAQ        (DI)(AX*8), R12
	LEAQ        (R12)(R15*1), R14
	VMOVQ       (R12), X0
	VPINSRQ     $1, (R12)(BX*8), X0, X0
	VMOVQ       (R14), X1
	VPINSRQ     $1, (R14)(BX*8), X1, X1
	VINSERTI128 $1, X1, Y0, Y0
	TEMPER

	// Outside the window: v + winOff > winMax.
	VPBROADCASTQ fillStep_Bound+Bound_winOff(SI), Y2
	VPADDQ       Y2, Y0, Y2
	VPBROADCASTQ fillStep_Bound+Bound_winMax(SI), Y3
	VPCMPGTQ     Y3, Y2, Y2
	VPOR         Y2, Y8, Y8

	// x = v − want.
	VPBROADCASTD (R10)(AX*4), Y2
	VPSRLQ       $32, Y2, Y2
	VPSUBQ       Y2, Y0, Y0

	// y = x·inv mod 2⁶⁴ = lo(x)·lo(inv) + (hi(x)·lo(inv) + lo(x)·hi(inv))<<32.
	VPBROADCASTQ fillStep_Bound+Bound_inv(SI), Y3
	VPMULUDQ     Y3, Y0, Y4
	VPSRLQ       $32, Y0, Y5
	VPMULUDQ     Y3, Y5, Y5
	VPBROADCASTD fillStep_Bound+Bound_inv+4(SI), Y3
	VPMULUDQ     Y3, Y0, Y6
	VPADDQ       Y6, Y5, Y5
	VPSLLQ       $32, Y5, Y5
	VPADDQ       Y5, Y4, Y0

	// rotr(y, shr); a shift by 64 gives 0.
	VPBROADCASTQ fillStep_Bound+Bound_shr(SI), Y3
	VPSRLVQ      Y3, Y0, Y4
	VPBROADCASTQ fillStep_Bound+Bound_shl(SI), Y3
	VPSLLVQ      Y3, Y0, Y5
	VPOR         Y5, Y4, Y0

	// Miss where the rotated word exceeds m.
	VPBROADCASTQ fillStep_Bound+Bound_m(SI), Y3
	VPCMPGTQ     Y3, Y0, Y4
	VPOR         Y4, Y9, Y9
	VPOR         Y0, Y9, Y9

	ADDQ $fillStep__size, SI
	DECQ CX
	JNZ  step

	VPTEST   Y8, Y8
	JNZ      done
	VPCMPGTQ Y9, Y10, Y9 // every bit of a lane that missed
	VPANDN   Y11, Y9, Y9 // 1.0 where it did not
	VMOVDQU  Y9, (DX)
	ADDQ     $32, DX
	ADDQ     R13, DI
	DECQ     R11
	JNZ      group

done:
	SUBQ dst_base+72(FP), DX
	SHRQ $3, DX
	MOVQ DX, ret+104(FP)
	VZEROUPPER
	RET

// TEMPER512 is temper on every lane of Z0, with its masks in Z13..Z15.
// VPTERNLOGQ $0x78 computes Z0 ^ (Z2 & mask).
#define TEMPER512 \
	VPSRLQ     $29, Z0, Z2        \
	VPTERNLOGQ $0x78, Z13, Z2, Z0 \
	VPSLLQ     $17, Z0, Z2        \
	VPTERNLOGQ $0x78, Z14, Z2, Z0 \
	VPSLLQ     $37, Z0, Z2        \
	VPTERNLOGQ $0x78, Z15, Z2, Z0 \
	VPSRLQ     $43, Z0, Z2        \
	VPXORQ     Z2, Z0, Z0

// iota512 is 0..15, one word each: lanes, and words in a window.
DATA iota512<>+0(SB)/8, $0
DATA iota512<>+8(SB)/8, $1
DATA iota512<>+16(SB)/8, $2
DATA iota512<>+24(SB)/8, $3
DATA iota512<>+32(SB)/8, $4
DATA iota512<>+40(SB)/8, $5
DATA iota512<>+48(SB)/8, $6
DATA iota512<>+56(SB)/8, $7
DATA iota512<>+64(SB)/8, $8
DATA iota512<>+72(SB)/8, $9
DATA iota512<>+80(SB)/8, $10
DATA iota512<>+88(SB)/8, $11
DATA iota512<>+96(SB)/8, $12
DATA iota512<>+104(SB)/8, $13
DATA iota512<>+112(SB)/8, $14
DATA iota512<>+120(SB)/8, $15
GLOBL iota512<>(SB), RODATA|NOPTR, $128

// func matchAVX512(state *[312]uint64, i, w int, steps []fillStep, want []int32, dst []float64, p *matchPlan) int
//
// matchAVX2's test on eight runs at a time. For each step it collects
// the eight runs' words at the step's offset in Z0 through p's
// windows: lane r of Z0 starts as its word's place in its window, and
// each window's VPERMI2Q, masked to the window's lanes (K1),
// overwrites those lanes with their words. The routine tempers them
// and tests each word v with Bound's divisibility test,
// rotr((v − want)·inv, shr) ≤ m, where VPMULLQ gives the 64-bit
// product and VPRORVQ the rotation. K3 keeps the lanes whose word lies
// inside the bound's window and K2 the lanes that hit; both start as
// K4, the group's lanes below len(dst). A group in which K3 lost a
// lane stops the routine before it stores anything; otherwise a
// zero-masked move writes 1.0 where K2 is set and 0 elsewhere.
//
// The words are loaded as whole windows, not with VPGATHERQQ: on a
// 2-vCPU Intel Xeon host BenchmarkMatch's two-block row read 2.3–3.3
// ns per draw with windows and 2.8–3.4 with a gather (5 alternating
// runs each). The four-block row read about the same either way; the
// 45-block row, whose windows hold one lane each, read less with the
// gather.
//
// A last group of fewer than eight runs loads only the windows that
// hold its lanes, p.upto[len(dst) mod 8]. A window whose sixteen words
// run past state[311] loads the words in the state and zeroes the
// rest (K5, K6). The word of a lane below len(dst) always lies in the
// state, so only lanes that K4 masks off pick a zeroed word.
//
// Registers: DI the group's first word, R12 the step's word in the
// group's first run, R13 a group's bytes, R8/R9 the steps and their
// end, R10 want, DX dst, R11 runs left, R14/CX the windows and their
// end, R15 a window. Z8 holds p.idx, Z9/Z10 the numbers 0..7 and 8..15
// and Z11 1.0 in every lane.
TEXT ·matchAVX512(SB), NOSPLIT, $16-112
	MOVQ      state+0(FP), DI
	LEAQ      2496(DI), AX
	MOVQ      AX, end-8(SP)
	MOVQ      i+8(FP), AX
	LEAQ      (DI)(AX*8), DI
	MOVQ      w+16(FP), R13
	SHLQ      $6, R13
	MOVQ      p+96(FP), R14
	MOVQ      R14, plan-16(SP)
	MOVQ      matchPlan_upto+64(R14), CX // upto[8]: a whole group's windows
	IMULQ     $window__size, CX
	VMOVDQU64 matchPlan_idx(R14), Z8
	LEAQ      matchPlan_wins(R14), R14
	ADDQ      R14, CX
	MOVQ      steps_base+24(FP), R8
	MOVQ      steps_len+32(FP), R9
	IMULQ     $fillStep__size, R9
	ADDQ      R8, R9
	MOVQ      want_base+48(FP), R10
	MOVQ      dst_base+72(FP), DX
	MOVQ      dst_len+80(FP), R11

	VMOVDQU64    iota512<>+0(SB), Z9
	VMOVDQU64    iota512<>+64(SB), Z10
	MOVQ         $0x5555555555555555, AX
	VPBROADCASTQ AX, Z13
	MOVQ         $0x71D67FFFEDA60000, AX
	VPBROADCASTQ AX, Z14
	MOVQ         $0xFFF7EEE000000000, AX
	VPBROADCASTQ AX, Z15
	MOVQ         $0x3FF0000000000000, AX
	VPBROADCASTQ AX, Z11

group:
	VPBROADCASTQ R11, Z3
	VPCMPQ       $1, Z3, Z9, K4 // the lanes below the runs left
	KMOVB        K4, K2
	KMOVB        K4, K3
	CMPQ         R11, $8
	JAE          steps
	MOVQ         plan-16(SP), AX
	MOVQ         matchPlan_upto(AX)(R11*8), CX
	IMULQ        $window__size, CX
	ADDQ         R14, CX

steps:
	MOVQ R8, SI

step:
	MOVLQSX      fillStep_dst(SI), AX
	LEAQ         (DI)(AX*8), R12
	MOVL         (R10)(AX*4), AX
	VPBROADCASTQ AX, Z5
	VMOVDQA64    Z8, Z0
	MOVQ         R14, R15

window:
	KMOVB     window_lanes(R15), K1
	MOVQ      window_off(R15), AX
	LEAQ      128(R12)(AX*1), BX
	CMPQ      BX, end-8(SP)
	JA        past
	VMOVDQU64 (R12)(AX*1), Z1
	VPERMI2Q  64(R12)(AX*1), Z1, K1, Z0

next:
	ADDQ $window__size, R15
	CMPQ R15, CX
	JB   window

	TEMPER512

	// Inside the window: v + winOff ≤ winMax.
	VPADDQ.BCST fillStep_Bound+Bound_winOff(SI), Z0, Z2
	VPCMPQ.BCST $2, fillStep_Bound+Bound_winMax(SI), Z2, K3, K3

	// Hit where rotr((v − want)·inv, shr) ≤ m.
	VPSUBQ       Z5, Z0, Z0
	VPMULLQ.BCST fillStep_Bound+Bound_inv(SI), Z0, Z0
	VPRORVQ.BCST fillStep_Bound+Bound_shr(SI), Z0, Z0
	VPCMPUQ.BCST $2, fillStep_Bound+Bound_m(SI), Z0, K2, K2

	ADDQ $fillStep__size, SI
	CMPQ SI, R9
	JB   step

	KMOVB       K3, AX
	KMOVB       K4, BX
	CMPL        AX, BX
	JNE         stop
	VMOVDQA64.Z Z11, K2, Z0
	VMOVDQU64   Z0, K4, (DX)
	ADDQ        $64, DX
	ADDQ        R13, DI
	SUBQ        $8, R11
	JG          group

	MOVQ dst_len+80(FP), AX
	MOVQ AX, ret+104(FP)
	VZEROUPPER
	RET

past:
	// BX is how many of the window's words lie in the state.
	MOVQ         end-8(SP), BX
	SUBQ         R12, BX
	SUBQ         AX, BX
	SARQ         $3, BX
	VPBROADCASTQ BX, Z3
	VPCMPQ       $1, Z3, Z9, K5
	VPCMPQ       $1, Z3, Z10, K6
	VMOVDQU64.Z  (R12)(AX*1), K5, Z1
	VMOVDQU64.Z  64(R12)(AX*1), K6, Z4
	VPERMI2Q     Z4, Z1, K1, Z0
	JMP          next

stop:
	SUBQ dst_base+72(FP), DX
	SHRQ $3, DX
	MOVQ DX, ret+104(FP)
	VZEROUPPER
	RET
