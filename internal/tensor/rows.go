package tensor

// The batch kernels of the embedding path. A worker's batch names one
// embedding row per (sample, field) edge, idx[k] being the row of edge k, and
// moves every edge's row once per direction: GatherRows builds the dense
// input from the gathered embeddings, ScatterAddRows reduces the input
// gradient back to one gradient row per embedding. One call covers the whole
// batch, so the per-edge cost is the row's work and not a call. At the
// embedding widths 4 and 8 the rows are fixed-size arrays: a row copy is one
// or two 16-byte array assignments and a row add four or eight unrolled adds,
// with the bounds checked per row, not per element. Other widths run copy and
// Add per row.
//
// A gather is a copy, and ScatterAddRows adds the edges in ascending k, so
// every destination row receives its additions in (sample, field) order:
// each row's sum is one fixed sequence of float32 adds, whatever the width
// (DESIGN §18). The operand-length panics are constant strings; an index
// outside src (GatherRows) or dst (ScatterAddRows) panics on the slice
// bounds.

// GatherRows copies row idx[k] of src into row k of dst for every k, rows
// being width floats: dst[k·width : (k+1)·width] = src[idx[k]·width : …].
// dst must hold at least len(idx) rows and must not overlap src.
func GatherRows(dst, src []float32, idx []int32, width int) {
	if len(dst) < len(idx)*width {
		panic("tensor: GatherRows dst is shorter than its rows")
	}
	switch width {
	case 4:
		for k, i := range idx {
			*(*[4]float32)(dst[k*4:]) = *(*[4]float32)(src[int(i)*4:])
		}
	case 8:
		// Two 16-byte halves: a 32-byte array assignment between slices
		// that may overlap compiles to a runtime memmove call.
		for k, i := range idx {
			d, s := (*[8]float32)(dst[k*8:]), (*[8]float32)(src[int(i)*8:])
			*(*[4]float32)(d[:4]) = *(*[4]float32)(s[:4])
			*(*[4]float32)(d[4:]) = *(*[4]float32)(s[4:])
		}
	default:
		for k, i := range idx {
			r := int(i) * width
			copy(dst[k*width:(k+1)*width], src[r:r+width])
		}
	}
}

// ScatterAddRows adds row k of src into row idx[k] of dst for k ascending,
// rows being width floats: dst[idx[k]·width + j] += src[k·width + j]. src
// must hold at least len(idx) rows and must not overlap dst.
func ScatterAddRows(dst, src []float32, idx []int32, width int) {
	if len(src) < len(idx)*width {
		panic("tensor: ScatterAddRows src is shorter than its rows")
	}
	switch width {
	case 4:
		for k, i := range idx {
			s := (*[4]float32)(src[k*4:])
			d := (*[4]float32)(dst[int(i)*4:])
			d[0] += s[0]
			d[1] += s[1]
			d[2] += s[2]
			d[3] += s[3]
		}
	case 8:
		for k, i := range idx {
			s := (*[8]float32)(src[k*8:])
			d := (*[8]float32)(dst[int(i)*8:])
			d[0] += s[0]
			d[1] += s[1]
			d[2] += s[2]
			d[3] += s[3]
			d[4] += s[4]
			d[5] += s[5]
			d[6] += s[6]
			d[7] += s[7]
		}
	default:
		for k, i := range idx {
			r := int(i) * width
			Add(src[k*width:(k+1)*width], dst[r:r+width])
		}
	}
}
