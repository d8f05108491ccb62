package tensor

import (
	"fmt"
	"math"
	"testing"

	"hetgmp/internal/xrand"
)

// refGatherRows and refScatterAddRows are the engine worker's
// per-(sample, field) loops that GatherRows and ScatterAddRows replaced,
// kept verbatim over flat slices: idx holds fields indexes per sample, input
// and dInput one row of fields·dim floats per sample, embBuf and gb one row
// of dim floats per unique feature.
func refGatherRows(input, embBuf []float32, idx []int32, fields, dim int) {
	for r := 0; r < len(idx)/fields; r++ {
		row := input[r*fields*dim : (r+1)*fields*dim]
		for f := 0; f < fields; f++ {
			i := int(idx[r*fields+f])
			copy(row[f*dim:(f+1)*dim], embBuf[i*dim:(i+1)*dim])
		}
	}
}

func refScatterAddRows(gb, dInput []float32, idx []int32, fields, dim int) {
	for r := 0; r < len(idx)/fields; r++ {
		drow := dInput[r*fields*dim : (r+1)*fields*dim]
		for f := 0; f < fields; f++ {
			i := int(idx[r*fields+f])
			Add(drow[f*dim:(f+1)*dim], gb[i*dim:(i+1)*dim])
		}
	}
}

// rowValue draws sweepValue's values plus ±Inf and NaN. The only NaN it
// draws is the one Inf − Inf yields, so every NaN a sum can produce has the
// same bits whichever operand the hardware propagates.
func rowValue(r *xrand.RNG, defaultNaN float32) float32 {
	switch r.Intn(16) {
	case 0:
		return float32(math.Inf(1))
	case 1:
		return float32(math.Inf(-1))
	case 2:
		return defaultNaN
	}
	return sweepValue(r)
}

// TestGatherScatterRowsMatchPerRowLoops pins GatherRows and ScatterAddRows
// to the per-row loops they replaced, bit for bit, at every width 1–40 (the
// fixed-width bodies at 4 and 8, copy and Add elsewhere), over Zipf-like
// repeated indexes (many edges summing into one row) and all-distinct ones.
// Each case runs twice: on rowValue's special values, and on finite ones of
// mixed sign and magnitude, whose sums a different order of additions would
// round differently. Outputs are views inside NaN-canary slices: a kernel
// that writes outside its rows fails here.
func TestGatherScatterRowsMatchPerRowLoops(t *testing.T) {
	inf := float32(math.Inf(1))
	defaultNaN := inf - inf
	r := xrand.New(43)
	values := map[string]func() float32{
		"special": func() float32 { return rowValue(r, defaultNaN) },
		"finite": func() float32 {
			v := float32(math.Pow(10, -3+6*r.Float64()))
			if r.Intn(2) == 0 {
				v = -v
			}
			return v
		},
	}
	const samples, fields = 12, 5
	edges := samples * fields
	for width := 1; width <= 40; width++ {
		for _, c := range []struct{ pattern, values string }{
			{"zipf", "special"}, {"zipf", "finite"}, {"distinct", "special"}, {"distinct", "finite"},
		} {
			pattern, value := c.pattern, values[c.values]
			uniq := edges
			idx := r.Perm32(edges)
			if pattern == "zipf" {
				uniq = 9
				for k := range idx {
					u := r.Float64()
					idx[k] = int32(float64(uniq) * u * u * u)
				}
			}
			draw := func(n int) []float32 {
				s := make([]float32, n)
				for i := range s {
					s[i] = value()
				}
				return s
			}
			emb, dIn, gb0 := draw(uniq*width), draw(edges*width), draw(uniq*width)
			name := fmt.Sprintf("width %d %s %s", width, pattern, c.values)

			wantIn := make([]float32, edges*width)
			refGatherRows(wantIn, emb, idx, fields, width)
			gotIn := carve(1, edges*width, 3)
			GatherRows(gotIn.Data, emb, idx, width)
			requireBits(t, name+" GatherRows", gotIn, wantIn)

			wantGb := append([]float32(nil), gb0...)
			refScatterAddRows(wantGb, dIn, idx, fields, width)
			gotGb := carve(1, uniq*width, 5)
			copy(gotGb.Data, gb0)
			ScatterAddRows(gotGb.Data, dIn, idx, width)
			requireBits(t, name+" ScatterAddRows", gotGb, wantGb)
		}
	}
}

func requireBits(t *testing.T, name string, got carved, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), per-row loop %v (%#08x)",
				name, i, got.Data[i], math.Float32bits(got.Data[i]), want[i], math.Float32bits(want[i]))
		}
	}
	if !got.intact() {
		t.Fatalf("%s: wrote outside its rows", name)
	}
}

// TestGatherScatterRowsPanics checks that a short operand panics before any
// row is written, and that an index past the table panics rather than
// reading or writing outside it.
func TestGatherScatterRowsPanics(t *testing.T) {
	for _, width := range []int{3, 4, 8} {
		for _, c := range []struct {
			name  string
			short bool // the length check, not a row's bounds, must panic
			run   func(out []float32)
		}{
			{"GatherRows short dst", true, func(out []float32) {
				GatherRows(out[:2*width-1], make([]float32, 4*width), []int32{1, 2}, width)
			}},
			{"GatherRows index past src", false, func(out []float32) {
				GatherRows(out, make([]float32, 4*width), []int32{1, 4}, width)
			}},
			{"ScatterAddRows short src", true, func(out []float32) {
				ScatterAddRows(out, make([]float32, 2*width-1), []int32{1, 2}, width)
			}},
			{"ScatterAddRows index past dst", false, func(out []float32) {
				ScatterAddRows(out, make([]float32, 2*width), []int32{1, 4}, width)
			}},
		} {
			out := make([]float32, 4*width)
			for i := range out {
				out[i] = 7
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at width %d did not panic", c.name, width)
					}
				}()
				c.run(out)
			}()
			if !c.short {
				continue
			}
			for _, v := range out {
				if v != 7 {
					t.Errorf("%s at width %d wrote before panicking: %v", c.name, width, out)
					break
				}
			}
		}
	}
}

// BenchmarkGatherScatterRows times one batch's gather and scatter-add, 256
// samples × 22 fields over 1,500 unique rows, at the benchmark workloads'
// embedding widths; the per-row sub-benchmarks time the loops they replaced.
func BenchmarkGatherScatterRows(b *testing.B) {
	const samples, fields, uniq = 256, 22, 1500
	r := xrand.New(5)
	idx := make([]int32, samples*fields)
	for k := range idx {
		u := r.Float64()
		idx[k] = int32(uniq * u * u)
	}
	for _, width := range []int{4, 8, 32} {
		emb := randSlice(r, uniq*width)
		input := randSlice(r, samples*fields*width)
		for _, impl := range []struct {
			name            string
			gather, scatter func()
		}{
			{"batch", func() { GatherRows(input, emb, idx, width) }, func() { ScatterAddRows(emb, input, idx, width) }},
			{"per-row", func() { refGatherRows(input, emb, idx, fields, width) }, func() { refScatterAddRows(emb, input, idx, fields, width) }},
		} {
			b.Run(fmt.Sprintf("gather/%s/w%d", impl.name, width), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.gather()
				}
			})
			b.Run(fmt.Sprintf("scatter/%s/w%d", impl.name, width), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.scatter()
				}
			})
		}
	}
}
