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

// func hasAVX512() bool
//
// The AVX-512 kernels use AVX512F, DQ (VPMULLQ, KMOVB) and VL (the
// refill's 256-bit step). The OS must save the XMM, YMM, opmask and
// both halves of the ZMM registers: XCR0 bits 1, 2 and 5-7.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   none512
	MOVL $1, AX
	CPUID
	ANDL $0x08000000, CX // OSXSAVE (bit 27)
	JZ   none512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  none512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80030000, BX // AVX512F (leaf 7, EBX bit 16), DQ (17), VL (31)
	CMPL BX, $0x80030000
	JNE  none512
	MOVB $1, ret+0(FP)
	RET

none512:
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

// Z10..Z12 hold lowerMask, 1 and matrixA in every lane. One step turns
// s[i..i+7] into the same words as STEP, with one VPTERNLOGQ for the
// bit select (0xE4: lowerMask ? s[i+1] : s[i]) and matrixA XORed into
// the lanes whose x is odd under a mask. It too loads s[i+1..i+8]
// before it stores s[i..i+7].
#define STEP512(far) \
	VMOVDQU64  8(SI), Z1          \
	VMOVDQU64  (SI), Z0           \
	VPTERNLOGQ $0xE4, Z10, Z0, Z1 \
	VPTESTMQ   Z11, Z1, K1        \
	VPSRLQ     $1, Z1, Z1         \
	VPXORQ     far(SI), Z1, Z1    \
	VPXORQ     Z12, Z1, K1, Z1    \
	VMOVDQU64  Z1, (SI)

// STEP256 is STEP512 on s[i..i+3], in the low halves of the same
// registers.
#define STEP256(far) \
	VMOVDQU64  8(SI), Y1          \
	VMOVDQU64  (SI), Y0           \
	VPTERNLOGQ $0xE4, Y10, Y0, Y1 \
	VPTESTMQ   Y11, Y1, K1        \
	VPSRLQ     $1, Y1, Y1         \
	VPXORQ     far(SI), Y1, Y1    \
	VPXORQ     Y12, Y1, K1, Y1    \
	VMOVDQU64  Y1, (SI)

// func refillAVX512(s *[312]uint64)
//
// Words 0..151 and 156..307 go eight at a time. A step at word 152
// would read s[152+156..159+156], past the array, for its upper four
// lanes, which must read s[0..3] instead; so one four-word step takes
// words 152..155, and 156..307 start a new loop.
TEXT ·refillAVX512(SB), NOSPLIT, $0-8
	MOVQ         s+0(FP), DI
	MOVQ         $0x7FFFFFFF, AX
	VPBROADCASTQ AX, Z10
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z11
	MOVQ         $0xB5026F5AA96619E9, AX
	VPBROADCASTQ AX, Z12
	MOVQ         DI, SI

	// Words 0..151 read s[i+156], which this loop leaves as it was.
	LEAQ 1216(DI), DX

low:
	STEP512(1248)
	ADDQ $64, SI
	CMPQ SI, DX
	JB   low

	// Words 152..155 read s[308..311], as yet unchanged.
	STEP256(1248)
	ADDQ $32, SI

	// Words 156..307 read s[i-156], which the steps above rewrote.
	LEAQ 2464(DI), DX

high:
	STEP512(-1248)
	ADDQ $64, SI
	CMPQ SI, DX
	JB   high

	VZEROUPPER
	RET
