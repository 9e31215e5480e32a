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
