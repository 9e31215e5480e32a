#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   none
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  none
	XORL CX, CX
	XGETBV
	ANDL $6, AX // the OS saves the XMM and YMM registers
	CMPL AX, $6
	JNE  none
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX // AVX2 (leaf 7, EBX bit 5)
	JZ   none
	MOVB $1, ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET

// Y10..Y13 hold upperMask, lowerMask, 1 and matrixA in every lane.
// One step turns s[i..i+3] into
//
//	x = s[i]&upperMask | s[i+1]&lowerMask
//	s[i] = s[i±156] ^ x>>1 ^ (x&1)*matrixA
//
// where the product is the mask "x is odd" ANDed with matrixA. It loads
// s[i+1..i+4] before it stores s[i..i+3], so every lane reads its
// successor's old value.
#define STEP(far) \
	VMOVDQU  8(SI), Y1    \
	VMOVDQU  (SI), Y0     \
	VPAND    Y10, Y0, Y0  \
	VPAND    Y11, Y1, Y1  \
	VPOR     Y1, Y0, Y0   \
	VPAND    Y12, Y0, Y2  \
	VPCMPEQQ Y12, Y2, Y2  \
	VPAND    Y13, Y2, Y2  \
	VPSRLQ   $1, Y0, Y0   \
	VPXOR    far(SI), Y0, Y0 \
	VPXOR    Y2, Y0, Y0   \
	VMOVDQU  Y0, (SI)

// func refillAVX2(s *[312]uint64)
//
// Every vector instruction here is VEX-encoded (VMOVQ, not MOVQ): one
// legacy SSE instruction among them made the routine five times slower.
TEXT ·refillAVX2(SB), NOSPLIT, $0-8
	MOVQ         s+0(FP), DI
	MOVQ         $0xFFFFFFFF80000000, AX
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ         $0x7FFFFFFF, AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ         $1, AX
	VMOVQ        AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ         $0xB5026F5AA96619E9, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ         DI, SI

	// Words 0..155 read s[i+156], which this loop leaves as it was.
	LEAQ 1248(DI), DX

low:
	STEP(1248)
	ADDQ $32, SI
	CMPQ SI, DX
	JB   low

	// Words 156..307 read s[i-156], which the loop above rewrote.
	LEAQ 2464(DI), DX

high:
	STEP(-1248)
	ADDQ $32, SI
	CMPQ SI, DX
	JB   high

	VZEROUPPER
	RET
