package engine

import (
	"reflect"
	"testing"

	"hetgmp/internal/cluster"
	"hetgmp/internal/consistency"
	"hetgmp/internal/embed"
	"hetgmp/internal/idmap"
	"hetgmp/internal/obs/analyze"
	"hetgmp/internal/partition"
	"hetgmp/internal/tensor"
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

// TestFootprintCountsEveryWorkerBuffer walks the worker struct by reflection,
// as TestFootprintCountsEveryShardScratchSlice walks the table's shard: every
// field is a scalar, a buffer, or listed as not the engine's to count, and
// the engine's per-worker leaves must hold exactly the buffers' bytes. A
// buffer added to worker without a line in Trainer.Footprint fails here.
func TestFootprintCountsEveryWorkerBuffer(t *testing.T) {
	f := newFixture(t)
	topo := cluster.ClusterB(2)
	// PS mode allocates the per-host tallies; two nodes the NIC tallies.
	tr, err := NewTrainer(f.config(t, func(c *Config) {
		c.Topo = topo
		c.Assign = partition.Random(f.g, topo.NumWorkers(), 5)
		c.PS = &PSConfig{Hosts: topo.Nodes}
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tr.workers {
		w.startEpoch()
		w.runIteration()
		// Only distributed mode grows the summary copies; give them room so
		// the walk can see whether they are counted.
		w.distReadPer = make([]embed.OwnerTraffic, 3)
		w.distUpdPer = make([]embed.OwnerTraffic, 5)
	}
	notABuffer := map[string]bool{
		"t":     true, // the trainer itself
		"rng":   true, // generator state, one word
		"state": true, // the model's activations: run.model's tree counts them
	}
	var walk func(path string, v reflect.Value) int64
	walk = func(path string, v reflect.Value) int64 {
		var bytes int64
		for i := 0; i < v.NumField(); i++ {
			name := path + v.Type().Field(i).Name
			if notABuffer[name] {
				continue
			}
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint32, reflect.Float64:
				continue
			case reflect.Slice:
				if f.Cap() == 0 {
					t.Fatalf("worker.%s was not grown above; the test cannot see whether it is counted", name)
				}
				bytes += int64(f.Cap()) * int64(f.Type().Elem().Size())
			case reflect.Struct:
				bytes += walk(name+".", f)
			case reflect.Pointer:
				switch p := f.UnsafePointer(); f.Type() {
				case reflect.TypeOf((*tensor.Matrix)(nil)):
					bytes += int64(cap((*tensor.Matrix)(p).Data)) * 4
				case reflect.TypeOf((*idmap.Map)(nil)):
					bytes += (*idmap.Map)(p).Bytes()
				default:
					t.Fatalf("worker.%s is a %s: neither a buffer the walk knows nor listed as not one", name, f.Type())
				}
			default:
				t.Fatalf("worker.%s is a %s: neither a buffer the walk knows nor listed as not one", name, f.Type())
			}
		}
		return bytes
	}
	var want int64
	for _, w := range tr.workers {
		want += walk("", reflect.ValueOf(w).Elem())
	}

	fp := tr.Footprint()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	// gather_buffers also holds the trainer's per-node NIC tallies.
	got := int64(-(len(tr.nicOut) + len(tr.nicIn)) * 8)
	for _, leaf := range []string{"dedup_index", "batch_prep", "sample_order", "gather_buffers"} {
		n, ok := fp.Find("run.engine." + leaf)
		if !ok {
			t.Fatalf("footprint has no run.engine.%s", leaf)
		}
		got += n.Bytes
	}
	if got != want {
		t.Fatalf("engine's per-worker leaves hold %d bytes, the workers' buffers %d", got, want)
	}
	if len(tr.nicOut) == 0 {
		t.Fatal("two-node fixture allocated no NIC tallies")
	}
}
