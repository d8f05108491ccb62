package main

import (
	"reflect"
	"testing"
	"time"

	"hetgmp/internal/report"
)

func TestAddWallClockRows(t *testing.T) {
	sum := report.New("run summary", "metric", "value")
	addWallClockRows(sum, 3000, 2*time.Second, 5<<20)
	addWallClockRows(sum, 3000, 0, 0) // no elapsed time, no rusage
	want := [][]string{
		{"wall-clock throughput (samples/s)", report.FormatFloat(1500)},
		{"peak RSS", "5.0 MiB"},
		{"wall-clock throughput (samples/s)", report.FormatFloat(0)},
	}
	if !reflect.DeepEqual(sum.Rows, want) {
		t.Fatalf("rows = %q, want %q", sum.Rows, want)
	}
}
