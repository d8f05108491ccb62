package tensor

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hetgmp/internal/xrand"
)

// gemmKernels lists the two GEMM entry points with their straight-line
// references for a rows×cols result summed over kk terms; b is kk×cols for
// both. With transA, a is the kk×rows matrix whose transpose is multiplied —
// so a row range of dst no longer depends on the same rows of a alone.
var gemmKernels = []struct {
	name     string
	run, ref func(dst, a, b *Matrix)
	transA   bool
}{
	{"MatMul", MatMul, refMatMul, false},
	{"MatMulATB", MatMulATB, refMatMulATB, true},
}

// aShape returns the shape of the a-operand of a rows×cols = Σ_kk product.
func aShape(transA bool, rows, kk int) (int, int) {
	if transA {
		return kk, rows
	}
	return rows, kk
}

// panelName names the widest column panel gemm starts its cascade with on
// this CPU; logs and benchmark names carry it.
func panelName() string {
	switch {
	case hasAVX2:
		return "avx2x32"
	case runtime.GOARCH == "amd64":
		return "sse2x16"
	}
	return "portable"
}

// canary is the bit pattern surrounding every carved operand: a quiet NaN,
// so an over-read that reaches dst poisons the result and an over-write is
// visible as a changed pattern.
const canary = 0x7fc0beef

// carved is a rows×cols matrix whose Data is a view into the middle of a
// larger canary-filled slice, at an element offset that is not a multiple of
// four — so never 16-byte aligned.
type carved struct {
	*Matrix
	backing []float32
	off     int
}

func carve(rows, cols, off int) carved {
	backing := make([]float32, off+rows*cols+7)
	for i := range backing {
		backing[i] = math.Float32frombits(canary)
	}
	return carved{&Matrix{Rows: rows, Cols: cols, Data: backing[off : off+rows*cols]}, backing, off}
}

// fill writes uniform [-1,1) values, zeroing each with probability zeroFrac.
func (c carved) fill(r *xrand.RNG, zeroFrac float32) {
	for i := range c.Data {
		c.Data[i] = 2*r.Float32() - 1
		if r.Float32() < zeroFrac {
			c.Data[i] = 0
		}
	}
}

// intact reports whether every element outside the view still is the canary.
func (c carved) intact() bool {
	for i, v := range c.backing {
		if (i < c.off || i >= c.off+len(c.Data)) && math.Float32bits(v) != canary {
			return false
		}
	}
	return true
}

// TestGEMMBitIdentitySweep pins the exactness contract of MatMul and
// MatMulATB on every panel, remainder and GEMV shape: each dst element is the
// left-to-right float32 sum its straight-line reference computes, bit for
// bit, on dense and half-zero operands (the kernels differ in whether they
// skip zeros). Every shape runs through the entry point and through both
// column cascades gemm can pick — without the 32-wide panel and, where the
// CPU has it, with — so the bits cannot depend on which one a host selects.
// The operands are unaligned views inside canary-filled slices: a kernel that
// writes outside dst, or reads outside a or b into a result, fails here at
// the shape that triggers it.
func TestGEMMBitIdentitySweep(t *testing.T) {
	t.Logf("gemm cascade on this CPU starts at: %s", panelName())
	r := xrand.New(29)
	for _, kern := range gemmKernels {
		type path struct {
			name string
			run  func(dst, a, b *Matrix)
		}
		paths := []path{{kern.name, kern.run}}
		for _, wide := range []bool{false, true} {
			if wide && !hasAVX2 {
				continue
			}
			paths = append(paths, path{fmt.Sprintf("%s/gemmWith(wide=%v)", kern.name, wide), func(dst, a, b *Matrix) {
				gemmWith(wide, dst.Data, a.Data, kern.transA, b.Data, dst.Rows, dst.Cols, b.Rows)
			}})
		}
		for _, rows := range []int{0, 1, 2, 63, 64, 65} {
			for _, kk := range []int{0, 1, 4, 31, 64, 832} {
				for _, cols := range []int{1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 96, 832} {
					for _, zeroFrac := range []float32{0, 0.5} {
						ar, ac := aShape(kern.transA, rows, kk)
						a, b := carve(ar, ac, 1), carve(kk, cols, 3)
						a.fill(r, zeroFrac)
						b.fill(r, zeroFrac)
						want := NewMatrix(rows, cols)
						kern.ref(want, a.Matrix, b.Matrix)
						for _, path := range paths {
							got := carve(rows, cols, 5)
							path.run(got.Matrix, a.Matrix, b.Matrix)
							id := fmt.Sprintf("%s %dx%dx%d zero=%g", path.name, rows, kk, cols, zeroFrac)
							for i := range want.Data {
								if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
									t.Fatalf("%s: element %d = %v, reference %v", id, i, got.Data[i], want.Data[i])
								}
							}
							if !got.intact() || !a.intact() || !b.intact() {
								t.Fatalf("%s: wrote outside dst (dst/a/b intact: %v/%v/%v)",
									id, got.intact(), a.intact(), b.intact())
							}
						}
					}
				}
			}
		}
	}
}

// TestCPUProbeMatchesProcCpuinfo checks the CPUID/XGETBV probe behind
// hasAVX2 against the kernel's own reading of the same bits: the avx2 flag
// is in /proc/cpuinfo exactly when the CPU has it and the OS saves YMM state.
func TestCPUProbeMatchesProcCpuinfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if hasAVX2 != listed {
		t.Fatalf("probe says AVX2 usable = %v, /proc/cpuinfo lists avx2 = %v", hasAVX2, listed)
	}
}

// TestGEMMRowViewsMatchWhole pins the contract nn.Parallel's shards rely on:
// computing dst through aliased row-range views — at odd row offsets, so the
// panels pair different rows, and including empty and one-row ranges — yields
// exactly the bits of one whole-matrix call, and rows outside a view are
// never written.
func TestGEMMRowViewsMatchWhole(t *testing.T) {
	r := xrand.New(23)
	const m, n, kk = 13, 21, 9
	rowView := func(x *Matrix, lo, hi int) *Matrix {
		return &Matrix{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
	}
	for _, kern := range gemmKernels {
		if kern.transA {
			continue // a row of dst reads a column of a: no row view of a exists
		}
		a := &Matrix{Rows: m, Cols: kk, Data: randSlice(r, m*kk)}
		b := &Matrix{Rows: kk, Cols: n, Data: randSlice(r, kk*n)}
		want := NewMatrix(m, n)
		kern.run(want, a, b)
		for _, cuts := range [][]int{{0, m}, {0, 0, m, m}, {0, 5, 13}, {0, 1, 2, 7, 13}, {0, 4, 4, 8, 13}, {4, 9}} {
			got := NewMatrix(m, n)
			for i := range got.Data {
				got.Data[i] = 42
			}
			for i := 0; i+1 < len(cuts); i++ {
				kern.run(rowView(got, cuts[i], cuts[i+1]), rowView(a, cuts[i], cuts[i+1]), b)
			}
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					expect := want.At(i, j)
					if i < cuts[0] || i >= cuts[len(cuts)-1] {
						expect = 42
					}
					if got.At(i, j) != expect {
						t.Fatalf("%s cuts %v: element (%d,%d) = %v, want %v", kern.name, cuts, i, j, got.At(i, j), expect)
					}
				}
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	r := xrand.New(31)
	for _, shape := range [][2]int{{0, 3}, {1, 1}, {1, 5}, {4, 1}, {3, 7}, {16, 5}} {
		src := randomMatrix(shape[0], shape[1], r)
		dst := NewMatrix(shape[1], shape[0])
		Transpose(dst, src)
		for i := 0; i < src.Rows; i++ {
			for j := 0; j < src.Cols; j++ {
				if dst.At(j, i) != src.At(i, j) {
					t.Fatalf("shape %v: dst(%d,%d) = %v, src(%d,%d) = %v", shape, j, i, dst.At(j, i), i, j, src.At(i, j))
				}
			}
		}
	}
}

// The GEMM benchmarks run the shapes one 64-row shard of the benchmark's
// workloads runs: 64×832×64 is WDL's first hidden layer on criteo
// (dense-bound), 64×88×4 the only hidden layer of embed-bound. MB/s counts
// the three operands once; GFLOP/s is the rate the ledger's nn.gflops sums.
// The sub-benchmark name ends in the panel the CPU selected (panelName).
func benchGEMM(b *testing.B, kernel int) {
	kern := gemmKernels[kernel]
	for _, shape := range [][3]int{{64, 832, 64}, {64, 88, 4}} {
		batch, in, out := shape[0], shape[1], shape[2]
		// Forward (MatMul) sums over in; dW (ATB) over the batch.
		rows, kk, cols := batch, in, out
		if kern.transA {
			rows, kk = in, batch
		}
		b.Run(fmt.Sprintf("%dx%dx%d/%s", batch, in, out, panelName()), func(b *testing.B) {
			r := xrand.New(3)
			ar, ac := aShape(kern.transA, rows, kk)
			a, bm, dst := randomMatrix(ar, ac, r), randomMatrix(kk, cols, r), NewMatrix(rows, cols)
			b.SetBytes(int64(4 * (len(a.Data) + len(bm.Data) + len(dst.Data))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kern.run(dst, a, bm)
			}
			b.ReportMetric(2*float64(rows*kk*cols)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkMatMul(b *testing.B)    { benchGEMM(b, 0) }
func BenchmarkMatMulATB(b *testing.B) { benchGEMM(b, 1) }
