//go:build !amd64

package tensor

// Off amd64 the elementwise kernels are the scalar loops.

func axpyWith(_ bool, alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy operands differ in length")
	}
	axpyGo(alpha, x, y)
}

func addWith(_ bool, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Add operands differ in length")
	}
	addGo(x, y)
}

func adaGradStepWith(_ bool, acc, w, g []float32, lr, eps float32) {
	if len(acc) != len(g) || len(w) != len(g) {
		panic("tensor: AdaGradStep operands differ in length")
	}
	adaGradGo(acc, w, g, lr, eps)
}
