package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke is `-quick` in one process: all four workloads in both
// modes at smoke-test sizes, the tiered≡flat and tcp≡sim checks, the result
// writer and -agree. The numbers are discarded; what must hold is that
// every operation succeeds and every named metric is reported.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	p := params{seed: 22, setups: 1, minReps: 1, quick: true, out: out, tmp: out}
	rf := collect(p.seed, 0, true, func(sp *spec, traced bool) *outcome {
		measure, defs := measureEndToEnd, endToEnd
		if traced {
			measure, defs = measureLayers, perLayer
		}
		o, err := measure(sp.quick(), p)
		if err != nil {
			t.Fatalf("%s %s: %v", sp.name, modeName(traced), err)
		}
		for _, f := range o.Failures {
			t.Errorf("%s %s: %s", sp.name, modeName(traced), f)
		}
		for _, d := range defs {
			if _, ok := o.Metrics[d.name]; !ok {
				t.Errorf("%s: %s is not reported", sp.name, d.name)
			}
		}
		return o
	})
	if rf.OpsTotal == 0 || rf.OpsFailed != 0 {
		t.Errorf("%d operations, %d failed", rf.OpsTotal, rf.OpsFailed)
	}
	tiered := rf.Workloads["tiered-bigtable"]["per_layer"].Metrics
	wire := rf.Workloads["tcp-2rank"]["per_layer"].Metrics
	flat := rf.Workloads["embed-bound"]["per_layer"].Metrics
	if tiered["embed.tier_hot_mb"].Value == 0 || flat["embed.tier_hot_mb"].Value != 0 {
		t.Error("embed.tier_* must be non-zero on tiered-bigtable only")
	}
	if wire["comm.wire_mb_per_iter"].Value == 0 || flat["comm.wire_mb_per_iter"].Value != 0 {
		t.Error("comm.wire_* must be non-zero on tcp-2rank only")
	}
	if left, _ := filepath.Glob(filepath.Join(out, "cold-*")); len(left) > 0 {
		t.Errorf("spill directories left behind: %v", left)
	}
	if _, err := os.Stat(filepath.Join(out, "tcp-2rank.trace.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}

	// The result file round-trips and agrees with itself; a count that
	// moved, or a timing beyond its bound, is a disagreement.
	path := filepath.Join(out, "result.json")
	if err := rf.write(path); err != nil {
		t.Fatal(err)
	}
	a, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := readResult(path)
	if bad := disagreements(a, b); len(bad) > 0 {
		t.Errorf("a result disagrees with itself: %v", bad)
	}
	bump := func(mode, name string, factor float64) {
		m := b.Workloads["dense-bound"][mode].Metrics
		v := m[name]
		v.Value *= factor
		m[name] = v
	}
	bump("end_to_end", "train_samples_per_s", 1.10) // within the 20 % bound
	bump("per_layer", "nn.forward_ns_per_row", 3)   // per-layer timings have no bound
	if bad := disagreements(a, b); len(bad) > 0 {
		t.Errorf("differences within the bounds reported: %v", bad)
	}
	bump("end_to_end", "train_samples_per_s", 1.15)
	bump("end_to_end", "final_auc", 1.0000001)
	bump("per_layer", "bigraph.edges", 1.0001)
	if bad := disagreements(a, b); len(bad) != 3 {
		t.Errorf("want 3 disagreements (throughput, AUC, edge count), got %v", bad)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps /BENCHMARK.json — what the driver
// reads — in step with the metric and workload tables the program reports
// from.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := doc.Workloads[i]; w.Name != sp.name || w.Why != sp.why || len(sp.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, w, sp.name, sp.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
