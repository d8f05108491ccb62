// Package tensor implements the small dense linear-algebra substrate that
// the HET-GMP reproduction trains on. The paper runs WDL and DCN on
// CUDA/cuDNN; here the same float32 math runs on the CPU. Only the
// operations the models need are provided — vectors, row-major matrices,
// matrix multiplication with accumulation, and elementwise kernels — kept
// allocation-conscious so the training engine can reuse buffers across
// mini-batches.
package tensor

import (
	"fmt"
	"math"

	"hetgmp/internal/xrand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// XavierInit fills m with Glorot-uniform values scaled by the layer fan-in
// and fan-out, the initialisation WDL/DCN implementations conventionally use.
func (m *Matrix) XavierInit(r *xrand.RNG) {
	limit := float32(math.Sqrt(6 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (2*r.Float32() - 1) * limit
	}
}

// aStrides returns the element strides of the gemm a-operand A, whose (i, k)
// entry is a[i*aRow+k*aK]: an m×kk row-major matrix, or with transA the
// transpose of a kk×m one. Either way a spans exactly m·kk elements.
func aStrides(transA bool, m, kk int) (aRow, aK int) {
	if transA {
		return 1, m
	}
	return kk, 1
}

// gemmRows is the portable GEMM kernel. For rows i in [i0, i1) and columns j
// in [j0, n) of the m×n matrix dst it computes
//
//	dst[i*n+j] = Σ_k A(i,k)·b[k*n+j]
//
// with A laid out as aStrides describes and b a kk×n row-major matrix. Each
// element is one left-to-right float32 sum over k starting from +0, whatever
// the row or column range, so any tiling of dst yields the same bits. The
// inner loop is an Axpy along the dst row; zero A-entries (half of a
// post-ReLU operand) are skipped, which cannot change a finite sum.
//
// It is the whole implementation off amd64, and on amd64 the edge handler of
// the register panels.
func gemmRows(dst, a []float32, transA bool, b []float32, m, n, kk, i0, i1, j0 int) {
	if j0 >= n {
		return
	}
	aRow, aK := aStrides(transA, m, kk)
	for i := i0; i < i1; i++ {
		drow := dst[i*n+j0 : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for k := 0; k < kk; k++ {
			aik := a[i*aRow+k*aK]
			if aik == 0 {
				continue
			}
			Axpy(aik, b[k*n+j0:(k+1)*n], drow)
		}
	}
}

// gemm computes dst = A·b with the widest kernels this CPU runs; every choice
// gemmWith can make yields the same bits.
func gemm(dst, a []float32, transA bool, b []float32, m, n, kk int) {
	gemmWith(hasAVX2, dst, a, transA, b, m, n, kk)
}

// MatMul computes dst = a · b. dst must be pre-allocated with shape
// a.Rows×b.Cols and must not alias a or b. It panics on shape mismatch.
// Every dst element is the left-to-right float32 sum over k.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch: (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	m, kk, n := a.Rows, a.Cols, b.Cols
	d, x, w := dst.Data[:m*n], a.Data[:m*kk], b.Data[:kk*n]
	if n == 1 {
		matVec(d, x, w)
		return
	}
	gemm(d, x, false, w, m, n, kk)
}

// matVec is MatMul for a one-column b (every logit head): dst[i] = Σ_k
// a[i][k]·v[k] as a plain dot loop, k ascending. Four rows run together so
// their four independent add chains overlap; each sum's order is untouched.
func matVec(dst, a, v []float32) {
	kk := len(v)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := a[i*kk : (i+1)*kk : (i+1)*kk]
		r1 := a[(i+1)*kk : (i+2)*kk : (i+2)*kk]
		r2 := a[(i+2)*kk : (i+3)*kk : (i+3)*kk]
		r3 := a[(i+3)*kk : (i+4)*kk : (i+4)*kk]
		var s0, s1, s2, s3 float32
		for k, vk := range v {
			s0 += r0[k] * vk
			s1 += r1[k] * vk
			s2 += r2[k] * vk
			s3 += r3[k] * vk
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		row := a[i*kk : (i+1)*kk]
		var s float32
		for k, vk := range v {
			s += row[k] * vk
		}
		dst[i] = s
	}
}

// MatMulATB computes dst = aᵀ · b, used for weight gradients
// (dW = xᵀ · dy). dst must have shape a.Cols×b.Cols. Every dst element is
// the left-to-right float32 sum over a's rows.
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch: (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	m, kk, n := a.Cols, a.Rows, b.Cols
	d, x, w := dst.Data[:m*n], a.Data[:m*kk], b.Data[:kk*n]
	if n == 1 {
		// dst is a vector: one saxpy of a's row r per b[r], r ascending.
		for i := range d {
			d[i] = 0
		}
		for r, br := range w {
			if br != 0 {
				Axpy(br, x[r*m:(r+1)*m], d)
			}
		}
		return
	}
	gemm(d, x, true, w, m, n, kk)
}

// Transpose writes srcᵀ into dst, which must have shape src.Cols×src.Rows
// and must not alias src.
func Transpose(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: Transpose shape mismatch: (%dx%d)ᵀ->(%dx%d)",
			src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		for j, v := range src.Row(i) {
			dst.Data[j*src.Rows+i] = v
		}
	}
}

// Dot returns the inner product of x and y.
//
// The sum runs in eight independent accumulator chains combined pairwise as
// ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), so the float32 additions are
// reassociated relative to the straight left-to-right loop: results may
// differ from the reference sum by a few ULPs (the property test bounds the
// divergence against a float64 reference), in exchange for breaking the
// loop-carried add dependency eight ways.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(x); i += 8 {
		x8 := x[i : i+8 : i+8]
		y8 := y[i : i+8 : i+8]
		s0 += x8[0] * y8[0]
		s1 += x8[1] * y8[1]
		s2 += x8[2] * y8[2]
		s3 += x8[3] * y8[3]
		s4 += x8[4] * y8[4]
		s5 += x8[5] * y8[5]
		s6 += x8[6] * y8[6]
		s7 += x8[7] * y8[7]
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// AddBias adds bias b to every row of m in place.
func AddBias(m *Matrix, b []float32) {
	if len(b) != m.Cols {
		panic("tensor: AddBias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
}

// ReLU applies max(0, x) elementwise in place and records the mask into
// mask (1 where the unit was active) for the backward pass. mask may be nil.
func ReLU(m *Matrix, mask []float32) {
	if mask != nil && len(mask) != len(m.Data) {
		panic("tensor: ReLU mask length mismatch")
	}
	for i, v := range m.Data {
		if v > 0 {
			if mask != nil {
				mask[i] = 1
			}
		} else {
			m.Data[i] = 0
			if mask != nil {
				mask[i] = 0
			}
		}
	}
}

// ReLUBackward multiplies grad elementwise by the activation mask recorded
// during the forward pass.
func ReLUBackward(grad *Matrix, mask []float32) {
	if len(mask) != len(grad.Data) {
		panic("tensor: ReLUBackward mask length mismatch")
	}
	for i := range grad.Data {
		grad.Data[i] *= mask[i]
	}
}

// Sigmoid returns 1/(1+e^-x) computed in float64 for stability near the
// saturated tails before rounding back to float32.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
