#include "textflag.h"

// Elementwise kernels, one element per lane. See elementwise_amd64.go for the
// contract and DESIGN.md §18 for why the results carry the scalar loops' bits.
//
// Every routine walks n elements, n a nonzero multiple of four, at unaligned
// addresses (VMOVUPS only): eight lanes a step and then, when n is not a
// multiple of eight, one last four-lane step in VEX.128 form. Each ends in
// VZEROUPPER. Per lane the operations are the scalar loop's, in its order,
// each rounded to float32 once: a multiply and an add are two instructions,
// never a fused one.

// func axpyAVX2(alpha float32, x, y *float32, n uintptr)
//
//	y[i] = y[i] + alpha*x[i]
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	CMPQ         CX, $8
	JB           axpyAVX2Four

axpyAVX2Loop:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     axpyAVX2Loop

axpyAVX2Four:
	TESTQ   CX, CX
	JZ      axpyAVX2Done
	VMOVUPS (SI), X1
	VMULPS  X0, X1, X1
	VMOVUPS (DI), X2
	VADDPS  X1, X2, X2
	VMOVUPS X2, (DI)

axpyAVX2Done:
	VZEROUPPER
	RET

// func addAVX2(x, y *float32, n uintptr)
//
//	y[i] = y[i] + x[i]
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	CMPQ CX, $8
	JB   addAVX2Four

addAVX2Loop:
	VMOVUPS (SI), Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     addAVX2Loop

addAVX2Four:
	TESTQ   CX, CX
	JZ      addAVX2Done
	VMOVUPS (SI), X1
	VMOVUPS (DI), X2
	VADDPS  X1, X2, X2
	VMOVUPS X2, (DI)

addAVX2Done:
	VZEROUPPER
	RET

// func adaGradAVX2(acc, w, grad *float32, n uintptr, lr, eps float32)
//
//	acc[i] = acc[i] + g[i]*g[i]
//	w[i]   = w[i] - (lr*g[i]) / (sqrt(acc[i]) + eps)
//
// VSQRTPS is the correctly rounded float32 square root, which is what the
// scalar loop's float32(math.Sqrt(float64(a))) rounds to.
TEXT ·adaGradAVX2(SB), NOSPLIT, $0-40
	MOVQ         acc+0(FP), AX
	MOVQ         w+8(FP), BX
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS lr+32(FP), Y6
	VBROADCASTSS eps+36(FP), Y7
	CMPQ         CX, $8
	JB           adaGradAVX2Four

adaGradAVX2Loop:
	VMOVUPS (DX), Y0
	VMULPS  Y0, Y0, Y1
	VMOVUPS (AX), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (AX)
	VSQRTPS Y2, Y3
	VADDPS  Y7, Y3, Y3
	VMULPS  Y0, Y6, Y4
	VDIVPS  Y3, Y4, Y4
	VMOVUPS (BX), Y5
	VSUBPS  Y4, Y5, Y5
	VMOVUPS Y5, (BX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, DX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     adaGradAVX2Loop

adaGradAVX2Four:
	TESTQ   CX, CX
	JZ      adaGradAVX2Done
	VMOVUPS (DX), X0
	VMULPS  X0, X0, X1
	VMOVUPS (AX), X2
	VADDPS  X1, X2, X2
	VMOVUPS X2, (AX)
	VSQRTPS X2, X3
	VADDPS  X7, X3, X3
	VMULPS  X0, X6, X4
	VDIVPS  X3, X4, X4
	VMOVUPS (BX), X5
	VSUBPS  X4, X5, X5
	VMOVUPS X5, (BX)

adaGradAVX2Done:
	VZEROUPPER
	RET
