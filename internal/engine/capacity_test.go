package engine

import (
	"testing"

	"hetgmp/internal/consistency"
	"hetgmp/internal/obs/analyze"
)

// TestReportCarriesCapacity pins the tentpole end-to-end: a Report=true run
// attaches a capacity block whose footprint tree validates, whose leaves sum
// to the reported total, and whose hot-set telemetry reflects real traffic.
func TestReportCarriesCapacity(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	cfg, _ := reportConfig(t, f, consistency.GraphBounded, 40)
	res := run(t, cfg)
	c := res.Report.Capacity
	if c == nil {
		t.Fatal("Report=true run produced no capacity block")
	}
	if err := analyze.VerifyCapacity(c); err != nil {
		t.Fatalf("capacity block inconsistent: %v", err)
	}
	if c.MeasuredTotalBytes <= 0 {
		t.Fatalf("measured footprint %d bytes", c.MeasuredTotalBytes)
	}
	if c.Footprint.Name != "run" {
		t.Errorf("footprint root %q, want run", c.Footprint.Name)
	}
	// Every stateful component the issue names must appear in the tree.
	for _, path := range []string{"run.table", "run.model", "run.model.weights_transposed", "run.partition", "run.engine"} {
		if n, ok := c.Footprint.Find(path); !ok || n.Bytes <= 0 {
			t.Errorf("footprint missing or empty branch %s", path)
		}
	}
	if c.TotalReads == 0 {
		t.Error("sketch observed no embedding reads over a real run")
	}
	if c.TotalUpdates == 0 {
		t.Error("sketch observed no embedding updates over a real run")
	}
	if len(c.HotFeatures) == 0 {
		t.Error("no hot features tracked")
	}
	if len(c.Coverage) == 0 {
		t.Error("no read-coverage curve")
	}
	if c.HotSetOverlap < 0 || c.HotSetOverlap > 1 {
		t.Errorf("hot-set overlap %g outside [0,1]", c.HotSetOverlap)
	}
}

// TestCapacityDeterministic pins that the capacity block itself is part of
// the deterministic telemetry surface: two identical runs measure identical
// footprints and identical hot-set summaries.
func TestCapacityDeterministic(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	build := func() *analyze.CapacityStat {
		cfg, _ := reportConfig(t, f, consistency.GraphBounded, 40)
		return run(t, cfg).Report.Capacity
	}
	a, b := build(), build()
	if a == nil || b == nil {
		t.Fatal("missing capacity block")
	}
	if a.MeasuredTotalBytes != b.MeasuredTotalBytes {
		t.Errorf("footprints differ: %d vs %d bytes", a.MeasuredTotalBytes, b.MeasuredTotalBytes)
	}
	if a.TotalReads != b.TotalReads || a.TotalUpdates != b.TotalUpdates {
		t.Errorf("stream totals differ: %d/%d vs %d/%d", a.TotalReads, a.TotalUpdates, b.TotalReads, b.TotalUpdates)
	}
	if len(a.HotFeatures) != len(b.HotFeatures) {
		t.Fatalf("hot sets differ in size: %d vs %d", len(a.HotFeatures), len(b.HotFeatures))
	}
	for i := range a.HotFeatures {
		if a.HotFeatures[i] != b.HotFeatures[i] {
			t.Errorf("hot set diverges at %d: %+v vs %+v", i, a.HotFeatures[i], b.HotFeatures[i])
		}
	}
}
