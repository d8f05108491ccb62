package tensor

import (
	"fmt"
	"math"
	"testing"

	"hetgmp/internal/xrand"
)

// Reference straight-line kernels the unrolled/blocked implementations are
// pinned against. These are the pre-optimisation loops, kept verbatim.

func refDot(x, y []float32) float32 {
	var s float32
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func refAxpy(alpha float32, x, y []float32) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// refAdd is the engine's per-(sample, field) scatter-add and the dense
// towers' dInput += dWide.
func refAdd(x, y []float32) {
	for i, v := range x {
		y[i] += v
	}
}

// refAdaGrad is optim.AdaGrad.Apply's loop.
func refAdaGrad(acc, row, grad []float32, lr, eps float32) {
	for i, g := range grad {
		acc[i] += g * g
		row[i] -= lr * g / (float32(math.Sqrt(float64(acc[i]))) + eps)
	}
}

// elemKernel is one elementwise kernel over operands a, b, c of one length:
// Axpy and Add read a into b and ignore c; AdaGradStep is (acc, w, g) =
// (a, b, c). entry is the exported function, with the driver with either
// cascade, ref the reference loop.
type elemKernel struct {
	name       string
	entry, ref func(a, b, c []float32)
	with       func(wide bool, a, b, c []float32)
}

func elementwiseKernels() []elemKernel {
	var ks []elemKernel
	for _, alpha := range []float32{0.37, -0.05} {
		ks = append(ks, elemKernel{
			name:  fmt.Sprintf("Axpy(%g)", alpha),
			entry: func(a, b, _ []float32) { Axpy(alpha, a, b) },
			ref:   func(a, b, _ []float32) { refAxpy(alpha, a, b) },
			with:  func(wide bool, a, b, _ []float32) { axpyWith(wide, alpha, a, b) },
		})
	}
	ks = append(ks, elemKernel{
		name:  "Add",
		entry: func(a, b, _ []float32) { Add(a, b) },
		ref:   func(a, b, _ []float32) { refAdd(a, b) },
		with:  func(wide bool, a, b, _ []float32) { addWith(wide, a, b) },
	})
	for _, p := range [][2]float32{{0.05, 1e-6}, {0.37, 0}} {
		lr, eps := p[0], p[1]
		ks = append(ks, elemKernel{
			name:  fmt.Sprintf("AdaGradStep(%g,%g)", lr, eps),
			entry: func(a, b, c []float32) { AdaGradStep(a, b, c, lr, eps) },
			ref:   func(a, b, c []float32) { refAdaGrad(a, b, c, lr, eps) },
			with:  func(wide bool, a, b, c []float32) { adaGradStepWith(wide, a, b, c, lr, eps) },
		})
	}
	return ks
}

// sweepValue draws from the values the update path must carry bit for bit:
// ±0, subnormals, ±1e30 (whose square overflows), ±1e-30 (whose square
// underflows) and magnitudes spread log-uniformly over 1e-10..1e5.
func sweepValue(r *xrand.RNG) float32 {
	var v float32
	switch r.Intn(8) {
	case 0:
		v = 0
	case 1:
		v = math.Float32frombits(uint32(1 + r.Intn(1<<23-1)))
	case 2:
		v = 1e30
	case 3:
		v = 1e-30
	default:
		v = float32(math.Pow(10, -10+15*r.Float64()))
	}
	if r.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestElementwiseBitIdentitySweep pins the exactness contract of Axpy, Add
// and AdaGradStep: at every length around the 4- and 8-lane boundaries, the
// entry point and the *With driver with the scalar cascade and (where the CPU
// has it) the AVX2 cascade leave every operand with the reference loop's
// bits. a (AdaGrad's accumulator) is non-negative, as a sum of squares is,
// and every fifth element has a = c = 0 (an accumulator and gradient both
// zero). The operands are unaligned views inside NaN-canary slices: a kernel
// that reads or writes past its n elements fails here.
func TestElementwiseBitIdentitySweep(t *testing.T) {
	r := xrand.New(37)
	for _, k := range elementwiseKernels() {
		type path struct {
			name string
			run  func(a, b, c []float32)
		}
		paths := []path{{k.name, k.entry}}
		for _, wide := range []bool{false, true} {
			if wide && !hasAVX2 {
				continue
			}
			paths = append(paths, path{fmt.Sprintf("%s/with(wide=%v)", k.name, wide), func(a, b, c []float32) { k.with(wide, a, b, c) }})
		}
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 32, 33, 64, 100} {
			for trial := 0; trial < 20; trial++ {
				in := [3][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}
				for i := 0; i < n; i++ {
					for j := range in {
						in[j][i] = sweepValue(r)
					}
					in[0][i] = float32(math.Abs(float64(in[0][i])))
					if i%5 == 2 {
						in[0][i], in[2][i] = 0, 0
					}
				}
				var want [3][]float32
				for j := range want {
					want[j] = append([]float32(nil), in[j]...)
				}
				k.ref(want[0], want[1], want[2])
				for _, p := range paths {
					var got [3]carved
					for j := range got {
						got[j] = carve(1, n, 2*j+1)
						copy(got[j].Data, in[j])
					}
					p.run(got[0].Data, got[1].Data, got[2].Data)
					for j := range got {
						for i := range want[j] {
							if math.Float32bits(got[j].Data[i]) != math.Float32bits(want[j][i]) {
								t.Fatalf("%s n=%d trial %d: operand %d element %d = %v (%#08x), reference %v (%#08x); inputs %v/%v/%v",
									p.name, n, trial, j, i, got[j].Data[i], math.Float32bits(got[j].Data[i]),
									want[j][i], math.Float32bits(want[j][i]), in[0][i], in[1][i], in[2][i])
							}
						}
						if !got[j].intact() {
							t.Fatalf("%s n=%d: wrote outside operand %d", p.name, n, j)
						}
					}
				}
			}
		}
	}
}

// TestElementwiseLengthPanics checks that Add and AdaGradStep refuse
// mismatched operands before writing any of them.
func TestElementwiseLengthPanics(t *testing.T) {
	for name, lens := range map[string][3]int{
		"Add":             {4, 5, 0},
		"AdaGradStep/acc": {5, 4, 4},
		"AdaGradStep/w":   {4, 5, 4},
		"AdaGradStep/g":   {4, 4, 5},
	} {
		a, b, c := make([]float32, lens[0]), make([]float32, lens[1]), make([]float32, lens[2])
		for i := range c {
			c[i] = 1
		}
		for i := range a {
			a[i] = 1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted operands of %v elements", name, lens)
				}
			}()
			if name == "Add" {
				Add(a, b)
			} else {
				AdaGradStep(a, b, c, 0.1, 1e-6)
			}
		}()
		for _, v := range b {
			if v != 0 {
				t.Errorf("%s wrote its output before panicking: %v", name, b)
				break
			}
		}
	}
}

func refMatMul(dst, a, b *Matrix) { copy(dst.Data, naiveMatMul(a, b).Data) }

func refMatMulATB(dst, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			dst.Set(i, j, s)
		}
	}
}

func randSlice(r *xrand.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = 2*r.Float32() - 1
	}
	return s
}

// TestDotULPBound documents and bounds the one deliberate reassociation:
// Dot sums in eight chains, so it may differ from the left-to-right
// reference by rounding only. Both float32 sums are compared against a
// float64 reference; the unrolled kernel must stay within the same error
// envelope the straight loop satisfies (n·eps·Σ|x·y|, eps = 2⁻²³ — the
// standard worst-case bound for recursive float32 summation).
func TestDotULPBound(t *testing.T) {
	r := xrand.New(13)
	for _, n := range []int{1, 3, 4, 5, 16, 33, 128, 1000} {
		x := randSlice(r, n)
		y := randSlice(r, n)
		var exact, absSum float64
		for i := range x {
			p := float64(x[i]) * float64(y[i])
			exact += p
			absSum += math.Abs(p)
		}
		bound := float64(n) * (1.0 / (1 << 23)) * absSum
		got := float64(Dot(x, y))
		ref := float64(refDot(x, y))
		if math.Abs(got-exact) > bound {
			t.Fatalf("n=%d: Dot error %g exceeds bound %g", n, math.Abs(got-exact), bound)
		}
		if math.Abs(ref-exact) > bound {
			t.Fatalf("n=%d: reference loop error %g exceeds bound %g", n, math.Abs(ref-exact), bound)
		}
	}
}

// TestDotExactTail pins the tail handling: for n < 8 no unrolled chain runs
// at all, so the result must equal the reference bit for bit.
func TestDotExactTail(t *testing.T) {
	r := xrand.New(17)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		x := randSlice(r, n)
		y := randSlice(r, n)
		if got, want := Dot(x, y), refDot(x, y); got != want {
			t.Fatalf("n=%d: %v vs %v", n, got, want)
		}
	}
}

func BenchmarkDot(b *testing.B) {
	r := xrand.New(3)
	x := randSlice(r, 256)
	y := randSlice(r, 256)
	b.ReportAllocs()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

func BenchmarkDotReference(b *testing.B) {
	r := xrand.New(3)
	x := randSlice(r, 256)
	y := randSlice(r, 256)
	b.ReportAllocs()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += refDot(x, y)
	}
	_ = sink
}

func BenchmarkAxpy(b *testing.B) {
	r := xrand.New(3)
	x := randSlice(r, 256)
	y := randSlice(r, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, y)
	}
}

// BenchmarkAdd runs Add at the embedding widths of the benchmark's workloads
// (4, 8, 32: the engine's scatter-add) and at one dense-tower width (832).
func BenchmarkAdd(b *testing.B) {
	for _, n := range []int{4, 8, 32, 832} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			r := xrand.New(3)
			x := randSlice(r, n)
			y := randSlice(r, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Add(x, y)
			}
		})
	}
}
