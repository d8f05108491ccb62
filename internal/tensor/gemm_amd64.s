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
