package tensor

import "fmt"

// gemmPanel32, gemmPanel16 and gemmPanel4 (gemm_amd64.s) compute `pairs`
// consecutive row pairs of one 32-, 16- or 4-column panel of dst = A·b: for
// each pair, two rows of accumulators start at +0 and take, for k ascending,
// one packed multiply and one packed add per lane. They read
// a[p*2*aRow + {0,aRow} + k*aK] and b[k*bStride : +W] and write
// dst[p*2*dstStride + {0,dstStride} : +W] for p < pairs, k < kk (byte
// strides, unaligned access); the caller guarantees all of that is in bounds.
// gemmPanel32 is AVX2 and may only run when hasAVX2 says so; the other two
// are SSE2, which every amd64 CPU has.
//
//go:noescape
func gemmPanel32(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)

//go:noescape
func gemmPanel16(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)

//go:noescape
func gemmPanel4(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)

// cpuHasAVX2 (gemm_amd64.s) asks CPUID and XGETBV whether this CPU and OS
// run 256-bit AVX2 code.
func cpuHasAVX2() bool

// hasAVX2 puts the AVX2 kernels at the head of every cascade: gemm's 32-column
// panel and the 8-lane elementwise bodies. It is probed once and nothing sets
// it: which cascade ran is invisible in the results (see gemmWith and
// axpyWith), so there is nothing to configure.
var hasAVX2 = cpuHasAVX2()

// gemmWith computes dst = A·b (see gemmRows for the operand layout) with the
// register-panel kernels: row pairs × 32-column panels when wide, then
// 16-column and 4-column panels; fewer than four remainder columns and an
// odd last row go to gemmRows.
//
// Same bits as gemmRows, wide or not: SIMD lanes run across output columns,
// never across k, and amd64 has no fused multiply-add in any path, so each
// dst element is the identical sequence of float32 roundings. The kernels do
// not skip zero a-elements as gemmRows does; that is bit-neutral for finite
// operands, because an accumulator starts at +0 and x + ±0 can never turn it
// into −0. The only divergence is 0·Inf = NaN, after training has already
// diverged.
//
// Bounds contract: the length check below is what makes every address the
// assembly touches lie inside dst, a and b — either layout of a spans exactly
// m·kk elements, and a panel at column j reads and writes columns
// [j, j+W) ⊆ [0, n) of rows that exist.
func gemmWith(wide bool, dst, a []float32, transA bool, b []float32, m, n, kk int) {
	if len(dst) != m*n || len(a) != m*kk || len(b) != kk*n {
		panic(fmt.Sprintf("tensor: gemm operands of %d/%d/%d elements do not span %dx%dx%d",
			len(dst), len(a), len(b), m, n, kk))
	}
	paired, j := 0, 0
	if kk > 0 {
		paired = m &^ 1
	}
	if paired > 0 {
		aRow, aK := aStrides(transA, m, kk)
		rowB, kB := uintptr(aRow*4), uintptr(aK*4)
		pairs, stride, k := uintptr(paired/2), uintptr(n*4), uintptr(kk)
		if wide {
			for ; j+32 <= n; j += 32 {
				gemmPanel32(&dst[j], stride, &a[0], rowB, kB, &b[j], stride, pairs, k)
			}
		}
		for ; j+16 <= n; j += 16 {
			gemmPanel16(&dst[j], stride, &a[0], rowB, kB, &b[j], stride, pairs, k)
		}
		for ; j+4 <= n; j += 4 {
			gemmPanel4(&dst[j], stride, &a[0], rowB, kB, &b[j], stride, pairs, k)
		}
	}
	gemmRows(dst, a, transA, b, m, n, kk, 0, paired, j)
	gemmRows(dst, a, transA, b, m, n, kk, paired, m, 0)
}
