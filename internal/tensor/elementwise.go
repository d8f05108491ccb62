package tensor

import "math"

// The elementwise kernels of the sparse update path and the dense towers. On
// an amd64 CPU with AVX2 each runs an AVX2 body over the longest
// multiple-of-four prefix and the scalar loop below over the rest
// (elementwise_amd64.go); elsewhere the scalar loop is the whole kernel. A
// SIMD lane is one element running the scalar loop's operations in its
// order, so every path yields the scalar loop's bits (DESIGN §18). x and y
// (acc, w and g) may be the same slice but must not otherwise overlap.

// Axpy computes y += alpha·x elementwise. The slices must be equal length.
func Axpy(alpha float32, x, y []float32) { axpyWith(hasAVX2, alpha, x, y) }

// Add computes y += x elementwise. The slices must be equal length.
func Add(x, y []float32) { addWith(hasAVX2, x, y) }

// AdaGradStep applies one AdaGrad step to the weights w with gradient g and
// squared-gradient accumulator acc, per element
//
//	acc[i] += g[i]·g[i]
//	w[i]   -= (lr·g[i]) / (√acc[i] + eps)
//
// with every operation rounded to float32. The slices must be equal length.
func AdaGradStep(acc, w, g []float32, lr, eps float32) {
	adaGradStepWith(hasAVX2, acc, w, g, lr, eps)
}

// axpyGo is the scalar y += alpha·x, 8-wide unrolled: each element runs one
// multiply and one add either way, so the unroll only breaks the loop-carried
// bookkeeping. Callers guarantee len(x) == len(y).
func axpyGo(alpha float32, x, y []float32) {
	i := 0
	for ; i+8 <= len(x); i += 8 {
		x8 := x[i : i+8 : i+8]
		y8 := y[i : i+8 : i+8]
		y8[0] += alpha * x8[0]
		y8[1] += alpha * x8[1]
		y8[2] += alpha * x8[2]
		y8[3] += alpha * x8[3]
		y8[4] += alpha * x8[4]
		y8[5] += alpha * x8[5]
		y8[6] += alpha * x8[6]
		y8[7] += alpha * x8[7]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// addGo is the scalar y += x. Callers guarantee len(x) == len(y).
func addGo(x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += v
	}
}

// adaGradGo is the scalar AdaGrad step. float32(math.Sqrt(float64(a))) is
// the correctly rounded float32 square root of a. Callers guarantee equal
// lengths.
func adaGradGo(acc, w, g []float32, lr, eps float32) {
	acc, w = acc[:len(g)], w[:len(g)]
	for i, gi := range g {
		acc[i] += gi * gi
		w[i] -= lr * gi / (float32(math.Sqrt(float64(acc[i]))) + eps)
	}
}
