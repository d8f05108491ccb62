package tensor

// axpyAVX2, addAVX2 and adaGradAVX2 (elementwise_amd64.s) run the loops of
// axpyGo, addGo and adaGradGo over n elements, n a nonzero multiple of four,
// eight lanes a step and then a last four; they may only run when hasAVX2
// says so. Each lane is one element: the routines read x/grad/acc/w[i] and
// write y/acc/w[i] for i < n only, with unaligned loads and stores. The
// caller guarantees every pointer spans n elements.
//
//go:noescape
func axpyAVX2(alpha float32, x, y *float32, n uintptr)

//go:noescape
func addAVX2(x, y *float32, n uintptr)

//go:noescape
func adaGradAVX2(acc, w, grad *float32, n uintptr, lr, eps float32)

// The *With drivers run, when wide, the AVX2 kernel over the longest prefix
// whose length is a multiple of four and the scalar loop over the other 0–3
// elements; otherwise the scalar loop over all of them. Either choice yields
// the scalar loop's bits. The length check is what keeps the assembly inside
// the operands.
//
// The scalar part runs first, which is free because elements are
// independent: then little is live across the assembly call. At an
// embedding width of 4 or 8 the driver is a visible share of a row's cost,
// so it slices out a tail only when there is one (the embedding widths are
// multiples of four), and its panic is a constant string: formatting the
// lengths would spill the operands on every call.

func axpyWith(wide bool, alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy operands differ in length")
	}
	n := 0
	if wide {
		n = len(x) &^ 3
	}
	if n < len(x) {
		axpyGo(alpha, x[n:], y[n:])
	}
	if n > 0 {
		axpyAVX2(alpha, &x[0], &y[0], uintptr(n))
	}
}

func addWith(wide bool, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Add operands differ in length")
	}
	n := 0
	if wide {
		n = len(x) &^ 3
	}
	if n < len(x) {
		addGo(x[n:], y[n:])
	}
	if n > 0 {
		addAVX2(&x[0], &y[0], uintptr(n))
	}
}

func adaGradStepWith(wide bool, acc, w, g []float32, lr, eps float32) {
	if len(acc) != len(g) || len(w) != len(g) {
		panic("tensor: AdaGradStep operands differ in length")
	}
	n := 0
	if wide {
		n = len(g) &^ 3
	}
	if n < len(g) {
		adaGradGo(acc[n:], w[n:], g[n:], lr, eps)
	}
	if n > 0 {
		adaGradAVX2(&acc[0], &w[0], &g[0], uintptr(n), lr, eps)
	}
}
