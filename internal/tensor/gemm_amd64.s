#include "textflag.h"

// SSE2 register-panel GEMM micro-kernels. See gemm_amd64.go for the contract
// and DESIGN.md §18 for why the results carry the portable kernel's bits.
//
// Both routines walk `pairs` consecutive row pairs of one column panel:
//
//	for p := 0; p < pairs; p++ {
//		acc[0..1][0..W) = +0
//		for k := 0; k < kk; k++ {
//			acc[0][:] += broadcast(a[k*aK])       * b[k*bStride : +W]
//			acc[1][:] += broadcast(a[aRow + k*aK]) * b[k*bStride : +W]
//		}
//		dst[0][0..W), dst[dstStride][0..W) = acc
//		a += 2*aRow; dst += 2*dstStride
//	}
//
// All strides are in bytes. A lane is one output column; MULPS then ADDPS
// (never fused) per k, ascending, is the scalar `y += alpha*x` sequence.

// func gemmPanel16(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)
TEXT ·gemmPanel16(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aK+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ bStride+48(FP), R11
	MOVQ pairs+56(FP), CX
	MOVQ kk+64(FP), R12
	TESTQ CX, CX
	JZ   done16

pair16:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  R12, R13
	TESTQ R13, R13
	JZ    store16

k16:
	MOVSS  (AX), X8
	SHUFPS $0, X8, X8
	MOVSS  (AX)(R9*1), X9
	SHUFPS $0, X9, X9

	MOVUPS (BX), X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X4

	MOVUPS 16(BX), X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X1
	ADDPS  X13, X5

	MOVUPS 32(BX), X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X2
	ADDPS  X11, X6

	MOVUPS 48(BX), X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X3
	ADDPS  X13, X7

	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R13
	JNZ  k16

store16:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, (DI)(R8*1)
	MOVUPS X5, 16(DI)(R8*1)
	MOVUPS X6, 32(DI)(R8*1)
	MOVUPS X7, 48(DI)(R8*1)
	LEAQ   (SI)(R9*2), SI
	LEAQ   (DI)(R8*2), DI
	DECQ   CX
	JNZ    pair16

done16:
	RET

// func gemmPanel4(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)
TEXT ·gemmPanel4(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aK+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ bStride+48(FP), R11
	MOVQ pairs+56(FP), CX
	MOVQ kk+64(FP), R12
	TESTQ CX, CX
	JZ   done4

pair4:
	XORPS X0, X0
	XORPS X1, X1
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  R12, R13
	TESTQ R13, R13
	JZ    store4

k4:
	MOVSS  (AX), X8
	SHUFPS $0, X8, X8
	MOVSS  (AX)(R9*1), X9
	SHUFPS $0, X9, X9
	MOVUPS (BX), X10
	MULPS  X10, X8
	MULPS  X10, X9
	ADDPS  X8, X0
	ADDPS  X9, X1
	ADDQ   R10, AX
	ADDQ   R11, BX
	DECQ   R13
	JNZ    k4

store4:
	MOVUPS X0, (DI)
	MOVUPS X1, (DI)(R8*1)
	LEAQ   (SI)(R9*2), SI
	LEAQ   (DI)(R8*2), DI
	DECQ   CX
	JNZ    pair4

done4:
	RET

// func gemmPanel32(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)
//
// The AVX2 sibling of gemmPanel16: the same loop over a 32-column panel, eight
// floats to a YMM register. VMULPS then VADDPS round per lane exactly as
// MULPS then ADDPS do (the VEX encoding changes the register width, not the
// arithmetic), and the pair is never fused. VZEROUPPER before RET keeps the
// SSE code that runs next from paying the dirty-upper-half transition.
TEXT ·gemmPanel32(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aK+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ bStride+48(FP), R11
	MOVQ pairs+56(FP), CX
	MOVQ kk+64(FP), R12
	TESTQ CX, CX
	JZ   done32

pair32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R12, R13
	TESTQ  R13, R13
	JZ     store32

k32:
	VBROADCASTSS (AX), Y8
	VBROADCASTSS (AX)(R9*1), Y9

	VMOVUPS (BX), Y10
	VMULPS  Y10, Y8, Y11
	VMULPS  Y10, Y9, Y12
	VADDPS  Y11, Y0, Y0
	VADDPS  Y12, Y4, Y4

	VMOVUPS 32(BX), Y13
	VMULPS  Y13, Y8, Y14
	VMULPS  Y13, Y9, Y15
	VADDPS  Y14, Y1, Y1
	VADDPS  Y15, Y5, Y5

	VMOVUPS 64(BX), Y10
	VMULPS  Y10, Y8, Y11
	VMULPS  Y10, Y9, Y12
	VADDPS  Y11, Y2, Y2
	VADDPS  Y12, Y6, Y6

	VMOVUPS 96(BX), Y13
	VMULPS  Y13, Y8, Y14
	VMULPS  Y13, Y9, Y15
	VADDPS  Y14, Y3, Y3
	VADDPS  Y15, Y7, Y7

	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R13
	JNZ  k32

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (DI)(R8*1)
	VMOVUPS Y5, 32(DI)(R8*1)
	VMOVUPS Y6, 64(DI)(R8*1)
	VMOVUPS Y7, 96(DI)(R8*1)
	LEAQ    (SI)(R9*2), SI
	LEAQ    (DI)(R8*2), DI
	DECQ    CX
	JNZ     pair32

done32:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// True when the CPU implements AVX2 and the OS saves the YMM state: CPUID
// leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1 and 2 (XMM and YMM
// state enabled), CPUID leaf 7 subleaf 0 EBX bit 5 (AVX2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    probed
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   probed
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   probed
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   probed
	MOVB  $1, ret+0(FP)

probed:
	RET
