//go:build !amd64

package tensor

// hasAVX2 is false off amd64: there is one cascade, the portable kernels.
const hasAVX2 = false

// gemmWith computes dst = A·b with the portable kernel; see gemmRows.
func gemmWith(_ bool, dst, a []float32, transA bool, b []float32, m, n, kk int) {
	gemmRows(dst, a, transA, b, m, n, kk, 0, m, 0)
}
