package main

import (
	"reflect"
	"testing"
	"time"

	"hetgmp/internal/embed"
	"hetgmp/internal/report"
)

func TestTierConfig(t *testing.T) {
	const features, dim = 1000, 8 // 32-byte rows
	cases := []struct {
		name      string
		hot, cold float64
		budget    int64
		want      embed.TierConfig
	}{
		{name: "off", want: embed.TierConfig{}},
		{name: "fraction", hot: 0.125, cold: 0.5, want: embed.TierConfig{HotRows: 125, ColdRows: 500}},
		{name: "rows", hot: 64, cold: 300, want: embed.TierConfig{HotRows: 64, ColdRows: 300}},
		{name: "budget overrides hot and spills the rest", hot: 0.5, budget: 3200, want: embed.TierConfig{HotRows: 100, ColdRows: 900}},
		{name: "budget keeps an explicit cold", budget: 3200, cold: 200, want: embed.TierConfig{HotRows: 100, ColdRows: 200}},
		{name: "budget below one row", budget: 1, want: embed.TierConfig{HotRows: 1, ColdRows: 999}},
		{name: "budget above the table", budget: 1 << 30, want: embed.TierConfig{HotRows: 1000}},
		{name: "cold clamped to the rows hot leaves", hot: 600, cold: 0.9, want: embed.TierConfig{HotRows: 600, ColdRows: 400}},
		{name: "tiny fraction keeps one row", hot: 1e-4, cold: 1e-4, want: embed.TierConfig{HotRows: 1, ColdRows: 1}},
	}
	for _, c := range cases {
		got := tierConfig(c.hot, c.cold, c.budget, "", features, dim)
		if got != c.want {
			t.Errorf("%s: tierConfig = %+v, want %+v", c.name, got, c.want)
		}
		if got.Enabled() != (c.hot > 0 || c.budget > 0) {
			t.Errorf("%s: Enabled() = %v", c.name, got.Enabled())
		}
	}
	if got := tierConfig(0.1, 0, 0, "spill", features, dim); got.ColdDir != "spill" {
		t.Errorf("ColdDir = %q, want spill", got.ColdDir)
	}
}

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
