package tensor

import (
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

func refScale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
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

// TestAxpyScaleBitIdentical pins the exactness contract of the unrolled
// elementwise kernels: every element runs the same single multiply(-add)
// as the straight loop, so any length — including the 1..3 element tails —
// must match bit for bit.
func TestAxpyScaleBitIdentical(t *testing.T) {
	r := xrand.New(7)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100, 257} {
		x := randSlice(r, n)
		y := randSlice(r, n)
		yRef := append([]float32(nil), y...)
		Axpy(0.37, x, y)
		refAxpy(0.37, x, yRef)
		for i := range y {
			if y[i] != yRef[i] {
				t.Fatalf("Axpy n=%d: element %d differs: %v vs %v", n, i, y[i], yRef[i])
			}
		}
		sRef := append([]float32(nil), x...)
		Scale(-1.83, x)
		refScale(-1.83, sRef)
		for i := range x {
			if x[i] != sRef[i] {
				t.Fatalf("Scale n=%d: element %d differs: %v vs %v", n, i, x[i], sRef[i])
			}
		}
	}
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
