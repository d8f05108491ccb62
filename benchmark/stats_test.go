package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestSummarize(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	s := summarize(seq(5)) // 1..5
	if s.N != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("summarize(1..5) = %+v", s)
	}
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 {
		t.Error("summarize reordered its argument")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true},  // ten samples beyond: 191..200
		{199, 0.95, 190, false}, // nine beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestDistTakesHighestReportableTail(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct     float64
		wantErr bool
	}{
		{1000, 99, false}, {999, 95, false}, {200, 95, false}, {199, 90, false},
		{100, 90, false}, {99, 75, false}, {40, 75, false}, {39, 50, false}, {20, 50, false},
		{19, 50, true},
	} {
		l := &ledger{m: map[string]float64{}, tails: map[string]tail{}}
		err := l.dist("x_us", seq(c.n), 1e6)
		tl := l.tails["x_us_tail"]
		if tl.Percentile != c.pct || tl.N != c.n || (err != nil) != c.wantErr {
			t.Errorf("n=%d: tail %+v, err %v; want p%v, err %v", c.n, tl, err, c.pct, c.wantErr)
		}
		if want := median(seq(c.n)) * 1e6; l.m["x_us_p50"] != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, l.m["x_us_p50"], want)
		}
	}
	quick := &ledger{m: map[string]float64{}, tails: map[string]tail{}, quick: true}
	if err := quick.dist("x_us", seq(3), 1); err != nil {
		t.Errorf("-quick must not fail on a short series: %v", err)
	}
}

func TestPairMeansCancelPhaseOffset(t *testing.T) {
	got := pairMeans([]float64{13, 7, 12, 8, 99})
	if len(got) != 2 || got[0] != 10 || got[1] != 10 {
		t.Errorf("pairMeans = %v", got)
	}
}

func TestPerWorkIgnoresDescheduledCalls(t *testing.T) {
	// Nine calls at 1 µs per row and one that sat descheduled for 50 ms.
	var c calls
	for i := 0; i < 9; i++ {
		c = append(c, span{Start: 0, End: 64_000, Work: 64})
	}
	c = append(c, span{Start: 0, End: 50_000_000, Work: 64})
	if got := c.perWork(); math.Abs(got-1e-6) > 1e-12 {
		t.Errorf("perWork = %v s/row, want 1e-6", got)
	}
}
