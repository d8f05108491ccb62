package tensor

import "fmt"

// gemmPanel16 and gemmPanel4 (gemm_amd64.s) compute `pairs` consecutive row
// pairs of one 16- or 4-column panel of dst = A·b: for each pair, two rows of
// accumulators start at +0 and take, for k ascending, one MULPS and one ADDPS
// per lane. They read a[p*2*aRow + {0,aRow} + k*aK] and b[k*bStride : +W] and
// write dst[p*2*dstStride + {0,dstStride} : +W] for p < pairs, k < kk (byte
// strides, unaligned access); the caller guarantees all of that is in bounds.
//
//go:noescape
func gemmPanel16(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)

//go:noescape
func gemmPanel4(dst *float32, dstStride uintptr, a *float32, aRow, aK uintptr, b *float32, bStride uintptr, pairs, kk uintptr)

// gemm computes dst = A·b (see gemmRows for the operand layout) with the SSE2
// panel kernels: row pairs × 16-column panels, then 4-column panels; fewer
// than four remainder columns and an odd last row go to gemmRows.
//
// Same bits as gemmRows: SIMD lanes run across output columns, never across
// k, and amd64 has no fused multiply-add in either path, so each dst element
// is the identical sequence of float32 roundings. The kernels do not skip
// zero a-elements as gemmRows does; that is bit-neutral for finite operands,
// because an accumulator starts at +0 and x + ±0 can never turn it into −0.
// The only divergence is 0·Inf = NaN, after training has already diverged.
//
// Bounds contract: the length check below is what makes every address the
// assembly touches lie inside dst, a and b — either layout of a spans exactly
// m·kk elements, and a panel at column j reads and writes columns
// [j, j+W) ⊆ [0, n) of rows that exist.
func gemm(dst, a []float32, transA bool, b []float32, m, n, kk int) {
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
		pairs, stride := uintptr(paired/2), uintptr(n*4)
		for ; j+16 <= n; j += 16 {
			gemmPanel16(&dst[j], stride, &a[0], uintptr(aRow*4), uintptr(aK*4), &b[j], stride, pairs, uintptr(kk))
		}
		for ; j+4 <= n; j += 4 {
			gemmPanel4(&dst[j], stride, &a[0], uintptr(aRow*4), uintptr(aK*4), &b[j], stride, pairs, uintptr(kk))
		}
	}
	gemmRows(dst, a, transA, b, m, n, kk, 0, paired, j)
	gemmRows(dst, a, transA, b, m, n, kk, paired, m, 0)
}
