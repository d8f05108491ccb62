package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"hetgmp/internal/xrand"
)

func approxEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// naiveMatMul is the reference implementation tests compare against.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randomMatrix(rows, cols int, r *xrand.RNG) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*r.Float32() - 1
	}
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := xrand.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 1, 9}, {16, 32, 8}} {
		a := randomMatrix(dims[0], dims[1], r)
		b := randomMatrix(dims[1], dims[2], r)
		got := NewMatrix(dims[0], dims[2])
		MatMul(got, a, b)
		want := naiveMatMul(a, b)
		for i := range got.Data {
			if !approxEq(got.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("dims %v: element %d: got %v want %v", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulATB(t *testing.T) {
	r := xrand.New(2)
	a := randomMatrix(6, 4, r)
	b := randomMatrix(6, 5, r)
	got := NewMatrix(4, 5)
	MatMulATB(got, a, b)
	// Reference: transpose a, then naive multiply.
	at := NewMatrix(4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := naiveMatMul(at, b)
	for i := range got.Data {
		if !approxEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	cases := []func(){
		func() { MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2)) },
		func() { MatMulATB(NewMatrix(2, 2), NewMatrix(3, 2), NewMatrix(4, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on shape mismatch", i)
				}
			}()
			fn()
		}()
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(-1, 2) did not panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestRowAtSet(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 5 {
		t.Fatalf("Row(1)[2] = %v, want 5", row[2])
	}
	row[3] = 7 // views are mutable
	if m.At(1, 3) != 7 {
		t.Fatalf("row mutation not visible: At(1,3) = %v", m.At(1, 3))
	}
}

func TestZero(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	m.Zero()
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v after Zero", i, v)
		}
	}
}

func TestXavierInitBounds(t *testing.T) {
	m := NewMatrix(64, 32)
	m.XavierInit(xrand.New(4))
	limit := float32(math.Sqrt(6.0 / (64 + 32)))
	var nonzero int
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Errorf("only %d/%d entries nonzero", nonzero, len(m.Data))
	}
}

func TestAxpy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	want := []float32{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestAxpyLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy length mismatch did not panic")
		}
	}()
	Axpy(1, []float32{1}, []float32{1, 2})
}

func TestDot(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestAdd(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{10, 20, 30, 40, 50}
	Add(x, y)
	for i, want := range []float32{11, 22, 33, 44, 55} {
		if y[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestAddBias(t *testing.T) {
	m := NewMatrix(2, 3)
	AddBias(m, []float32{1, 2, 3})
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != float32(j+1) {
				t.Fatalf("At(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestReLUAndBackward(t *testing.T) {
	m := NewMatrix(1, 4)
	copy(m.Data, []float32{-1, 0, 2, -3})
	mask := make([]float32, 4)
	ReLU(m, mask)
	want := []float32{0, 0, 2, 0}
	wantMask := []float32{0, 0, 1, 0}
	for i := range want {
		if m.Data[i] != want[i] || mask[i] != wantMask[i] {
			t.Fatalf("ReLU wrong at %d: val %v mask %v", i, m.Data[i], mask[i])
		}
	}
	grad := NewMatrix(1, 4)
	copy(grad.Data, []float32{5, 6, 7, 8})
	ReLUBackward(grad, mask)
	wantGrad := []float32{0, 0, 7, 0}
	for i := range wantGrad {
		if grad.Data[i] != wantGrad[i] {
			t.Fatalf("ReLUBackward wrong at %d: %v", i, grad.Data[i])
		}
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); !approxEq(got, 0.5, 1e-6) {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); !approxEq(got, 1, 1e-6) {
		t.Errorf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); !approxEq(got, 0, 1e-6) {
		t.Errorf("Sigmoid(-100) = %v", got)
	}
	// Symmetry: σ(-x) = 1 - σ(x).
	for _, x := range []float32{0.5, 1, 2, 5} {
		if !approxEq(Sigmoid(-x), 1-Sigmoid(x), 1e-6) {
			t.Errorf("symmetry broken at %v", x)
		}
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// Property: (αA)·B == α(A·B) for random small matrices.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := randomMatrix(3, 4, r)
		b := randomMatrix(4, 2, r)
		alpha := float32(2)
		ab := NewMatrix(3, 2)
		MatMul(ab, a, b)
		a2 := NewMatrix(a.Rows, a.Cols)
		for i, v := range a.Data {
			a2.Data[i] = alpha * v
		}
		ab2 := NewMatrix(3, 2)
		MatMul(ab2, a2, b)
		for i := range ab.Data {
			if !approxEq(ab2.Data[i], alpha*ab.Data[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
