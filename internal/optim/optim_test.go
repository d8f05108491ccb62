package optim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hetgmp/internal/xrand"
)

func TestSGDApply(t *testing.T) {
	s := NewSGD(0.1)
	row := []float32{1, 2}
	s.Apply(0, row, []float32{10, -10})
	if row[0] != 0 || row[1] != 3 {
		t.Fatalf("row = %v", row)
	}
	if s.Name() != "sgd" {
		t.Error("name wrong")
	}
}

func TestSGDStep(t *testing.T) {
	s := NewSGD(0.5)
	params := []float32{1, 1}
	s.Step(params, []float32{2, -2})
	if params[0] != 0 || params[1] != 2 {
		t.Fatalf("params = %v", params)
	}
}

func TestSGDPanicsOnBadLR(t *testing.T) {
	for _, lr := range []float32{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSGD(%v) accepted", lr)
				}
			}()
			NewSGD(lr)
		}()
	}
}

func TestAdaGradShrinksSteps(t *testing.T) {
	a := NewAdaGrad(0.1, 2, 3)
	row := []float32{0, 0, 0}
	grad := []float32{1, 1, 1}
	a.Apply(0, row, grad)
	step1 := -float64(row[0])
	a.Apply(0, row, grad)
	step2 := -float64(row[0]) - step1
	// With accumulating squared gradients, each subsequent step on the
	// same feature must be smaller.
	if step2 >= step1 {
		t.Fatalf("AdaGrad steps not shrinking: %v then %v", step1, step2)
	}
	// Expected: lr·g/√(g²) = 0.1 for the first step (modulo eps).
	if math.Abs(step1-0.1) > 1e-3 {
		t.Errorf("first step %v, want ≈0.1", step1)
	}
}

func TestAdaGradPerFeatureState(t *testing.T) {
	a := NewAdaGrad(0.1, 2, 1)
	r0 := []float32{0}
	r1 := []float32{0}
	a.Apply(0, r0, []float32{1})
	a.Apply(0, r0, []float32{1})
	a.Apply(1, r1, []float32{1})
	// Feature 1's first step must be full-sized despite feature 0's
	// history.
	if math.Abs(float64(r1[0])+0.1) > 1e-3 {
		t.Errorf("feature 1 first step %v, want ≈-0.1", r1[0])
	}
}

func TestAdaGradName(t *testing.T) {
	if NewAdaGrad(0.1, 1, 1).Name() != "adagrad" {
		t.Error("name wrong")
	}
	if NewDenseAdaGrad(0.1, 1).Name() != "adagrad" {
		t.Error("dense name wrong")
	}
}

func TestAdaGradPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAdaGrad(0, ...) accepted")
		}
	}()
	NewAdaGrad(0, 1, 1)
}

func TestDenseAdaGrad(t *testing.T) {
	d := NewDenseAdaGrad(0.1, 2)
	params := []float32{0, 0}
	d.Step(params, []float32{1, 2})
	if params[0] >= 0 || params[1] >= 0 {
		t.Fatalf("params = %v", params)
	}
	p0 := params[0]
	d.Step(params, []float32{1, 2})
	if params[0]-p0 <= -0.1 {
		// Second step must be smaller than the first (~0.1).
		t.Errorf("second step too large: %v", params[0]-p0)
	}
}

func TestDenseAdaGradPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDenseAdaGrad(-1, ...) accepted")
		}
	}()
	NewDenseAdaGrad(-1, 1)
}

func TestIsLinear(t *testing.T) {
	if !IsLinear(NewSGD(0.1)) {
		t.Error("SGD must declare linear apply")
	}
	if IsLinear(NewAdaGrad(0.1, 2, 3)) {
		t.Error("AdaGrad must not declare linear apply: its accumulator makes summed and sequential applies diverge")
	}
}

// TestChunkedDenseBitIdentical pins the ChunkedDense contract: sweeping one
// dense step in arbitrary chunks must produce bit-identical parameters and
// accumulator state to a whole-vector Step, because the update is
// elementwise.
func TestChunkedDenseBitIdentical(t *testing.T) {
	const n = 37 // deliberately not a multiple of any chunk size
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(i%7) - 2.5
	}
	for name, mk := range map[string]func() Dense{
		"sgd":     func() Dense { return NewSGD(0.05) },
		"adagrad": func() Dense { return NewDenseAdaGrad(0.05, n) },
	} {
		whole := mk()
		chunked := mk()
		pw := make([]float32, n)
		pc := make([]float32, n)
		for step := 0; step < 3; step++ { // repeat so AdaGrad state matters
			whole.Step(pw, grad)
			cd := chunked.(ChunkedDense)
			for lo := 0; lo < n; lo += 8 {
				hi := lo + 8
				if hi > n {
					hi = n
				}
				cd.StepAt(lo, pc[lo:hi], grad[lo:hi])
			}
		}
		for i := range pw {
			if pw[i] != pc[i] {
				t.Fatalf("%s: param %d diverged: %v (whole) vs %v (chunked)", name, i, pw[i], pc[i])
			}
		}
	}
}

// refAdaGradApply is AdaGrad.Apply's loop before it went through
// tensor.AdaGradStep, kept verbatim.
func refAdaGradApply(a *AdaGrad, x int32, row, grad []float32) {
	acc := a.accum[int(x)*a.dim : (int(x)+1)*a.dim]
	for i, g := range grad {
		acc[i] += g * g
		row[i] -= a.LR * g / (float32(math.Sqrt(float64(acc[i]))) + a.Eps)
	}
}

// TestAdaGradMatchesScalarLoop runs 1e5 applies per dim on 16 rows, so that
// accumulators grow over many steps, with gradient magnitudes spread
// log-uniformly over 1e-10..1e5 and random signs, and requires every row and
// accumulator bit to equal the scalar loop's.
func TestAdaGradMatchesScalarLoop(t *testing.T) {
	const features, applies = 16, 100_000
	for _, dim := range []int{4, 8, 32} {
		r := xrand.New(uint64(dim))
		got, want := NewAdaGrad(0.05, features, dim), NewAdaGrad(0.05, features, dim)
		rowsGot, rowsWant := make([]float32, features*dim), make([]float32, features*dim)
		grad := make([]float32, dim)
		for n := 0; n < applies; n++ {
			x := int32(r.Intn(features))
			for i := range grad {
				grad[i] = float32(math.Pow(10, -10+15*r.Float64()))
				if r.Intn(2) == 0 {
					grad[i] = -grad[i]
				}
			}
			lo, hi := int(x)*dim, (int(x)+1)*dim
			got.Apply(x, rowsGot[lo:hi], grad)
			refAdaGradApply(want, x, rowsWant[lo:hi], grad)
		}
		for i := range rowsWant {
			if math.Float32bits(rowsGot[i]) != math.Float32bits(rowsWant[i]) ||
				math.Float32bits(got.accum[i]) != math.Float32bits(want.accum[i]) {
				t.Fatalf("dim %d element %d: row/accum %v/%v, scalar loop %v/%v",
					dim, i, rowsGot[i], got.accum[i], rowsWant[i], want.accum[i])
			}
		}
	}
}

// TestApplyLengthContract pins the shapes each rule accepts — a row and a
// gradient of one length (AdaGrad: of its dim), a dense chunk inside the
// accumulator — and that anything else panics before a row, parameter or
// accumulator cell is written.
func TestApplyLengthContract(t *testing.T) {
	const dim = 4
	nonzero := func(s []float32) bool { return slices.ContainsFunc(s, func(v float32) bool { return v != 0 }) }
	// panics runs fn on a zero row and an all-ones gradient and reports
	// whether it panicked, and whether it wrote the row or the accumulator.
	panics := func(fn func(row, grad []float32), rowLen, gradLen int, accum []float32) (panicked, wrote bool) {
		row, grad := make([]float32, rowLen), make([]float32, gradLen)
		for i := range grad {
			grad[i] = 1
		}
		func() {
			defer func() { panicked = recover() != nil }()
			fn(row, grad)
		}()
		return panicked, nonzero(row) || nonzero(accum)
	}
	for _, tc := range []struct {
		name         string
		row, grad    int
		sgdOK, adaOK bool
	}{
		{"exact", dim, dim, true, true},
		{"short grad", dim, dim - 1, false, false},
		{"long grad", dim, dim + 1, false, false},
		{"short row", dim - 1, dim, false, false},
		{"both short", dim - 1, dim - 1, true, false},
	} {
		a := NewAdaGrad(0.1, 2, dim)
		for _, rule := range []struct {
			name string
			s    Sparse
			ok   bool
		}{{"SGD", NewSGD(0.1), tc.sgdOK}, {"AdaGrad", a, tc.adaOK}} {
			panicked, wrote := panics(func(row, grad []float32) { rule.s.Apply(1, row, grad) }, tc.row, tc.grad, a.accum)
			if panicked == rule.ok || (panicked && wrote) {
				t.Errorf("%s.Apply, %s: panicked %v (want %v), wrote before panicking %v", rule.name, tc.name, panicked, !rule.ok, panicked && wrote)
			}
		}
	}
	for _, tc := range []struct {
		name         string
		params, grad int
		offset       int
		ok           bool
	}{
		{"exact", dim, dim, 0, true},
		{"chunk at end", dim, dim, dim, true},
		{"chunk past end", dim, dim, dim + 1, false},
		{"negative offset", dim, dim, -1, false},
		{"short grad", dim, dim - 1, 0, false},
		{"short params", dim - 1, dim, 0, false},
	} {
		d := NewDenseAdaGrad(0.1, 2*dim)
		panicked, wrote := panics(func(p, g []float32) { d.StepAt(tc.offset, p, g) }, tc.params, tc.grad, d.accum)
		if panicked == tc.ok || (panicked && wrote) {
			t.Errorf("DenseAdaGrad.StepAt, %s: panicked %v (want %v), wrote before panicking %v", tc.name, panicked, !tc.ok, panicked && wrote)
		}
	}
}

// BenchmarkAdaGradApply times one Apply at the embedding widths of the
// benchmark's workloads (embed-bound 4, tcp-2rank 8, dense-bound and
// tiered-bigtable 32), on one row over and over (hot: row and accumulator in
// L1) and on random rows of a 600k-row table (table: tiered-bigtable's
// feature count; a million-entry ring of ids keeps the row and accumulator
// loads missing cache).
func BenchmarkAdaGradApply(b *testing.B) {
	const tableRows = 600_000
	for _, dim := range []int{4, 8, 32} {
		for _, mode := range []string{"hot", "table"} {
			rows := 1
			if mode == "table" {
				rows = tableRows
			}
			// Called through the interface, as embed.Table's commit calls it;
			// a slice element keeps the compiler from devirtualising.
			a := []Sparse{NewAdaGrad(0.05, rows, dim)}[0]
			table := make([]float32, rows*dim)
			r := xrand.New(5)
			ids := make([]int32, 1<<20)
			for i := range ids {
				ids[i] = int32(r.Intn(rows))
			}
			grad := make([]float32, dim)
			for i := range grad {
				grad[i] = 2*r.Float32() - 1
			}
			// One apply per row first, so no page is first touched while timed.
			for x := 0; x < rows; x++ {
				a.Apply(int32(x), table[x*dim:(x+1)*dim], grad)
			}
			b.Run(fmt.Sprintf("dim%d/%s", dim, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					x := ids[i&(len(ids)-1)]
					a.Apply(x, table[int(x)*dim:(int(x)+1)*dim], grad)
				}
			})
		}
	}
}
