//go:build !amd64

package tensor

// gemm computes dst = A·b with the portable kernel; see gemmRows.
func gemm(dst, a []float32, transA bool, b []float32, m, n, kk int) {
	gemmRows(dst, a, transA, b, m, n, kk, 0, m, 0)
}
