package engine

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"hetgmp/internal/dataset"
	"hetgmp/internal/idmap"
	"hetgmp/internal/nn"
	"hetgmp/internal/xrand"
)

// batchParallelModels are factories for the three CTR models the
// batch-parallel dense path must reproduce bit for bit — factories, not
// instances, because a Network carries mutable parameters and every run
// must start from the same seed weights. BatchPerWorker is raised to 160 in
// the test so every batch spans three row ranges (DefaultRangeRows = 64):
// G = 3 exercises the ascending-shard gradient reduction with a ragged
// tail, not just a single shard.
func batchParallelModels(f *fixture) map[string]func() nn.Network {
	fields := f.train.NumFields
	return map[string]func() nn.Network{
		"wdl": func() nn.Network {
			return nn.NewWDL(nn.WDLConfig{Fields: fields, Dim: 8, Hidden: []int{16}, Seed: 5})
		},
		"dcn": func() nn.Network {
			return nn.NewDCN(nn.DCNConfig{Fields: fields, Dim: 8, CrossLayers: 2, Hidden: []int{16}, Seed: 5})
		},
		"deepfm": func() nn.Network {
			return nn.NewDeepFM(nn.DeepFMConfig{Fields: fields, Dim: 8, Hidden: []int{16}, Seed: 5})
		},
	}
}

func sameResult(t *testing.T, label string, got, ref *Result) {
	t.Helper()
	if got.FinalAUC != ref.FinalAUC {
		t.Errorf("%s: AUC %v, reference %v", label, got.FinalAUC, ref.FinalAUC)
	}
	if got.TotalSimTime != ref.TotalSimTime {
		t.Errorf("%s: sim time %v, reference %v", label, got.TotalSimTime, ref.TotalSimTime)
	}
	if len(got.History) != len(ref.History) {
		t.Fatalf("%s: %d eval points, reference %d", label, len(got.History), len(ref.History))
	}
	for i := range ref.History {
		if got.History[i] != ref.History[i] {
			t.Errorf("%s: eval point %d = %+v, reference %+v", label, i, got.History[i], ref.History[i])
		}
	}
	if len(got.StepNorms) != len(ref.StepNorms) {
		t.Fatalf("%s: %d step norms, reference %d", label, len(got.StepNorms), len(ref.StepNorms))
	}
	for i := range ref.StepNorms {
		if got.StepNorms[i] != ref.StepNorms[i] {
			t.Errorf("%s: step norm %d = %v, reference %v", label, i, got.StepNorms[i], ref.StepNorms[i])
		}
	}
	if got.Breakdown.Bytes != ref.Breakdown.Bytes {
		t.Errorf("%s: traffic bytes %+v, reference %+v", label, got.Breakdown.Bytes, ref.Breakdown.Bytes)
	}
}

// TestBatchParallelBitIdentical is the dense-path gate: for all three
// models, the batch-parallel dense path (shared compute pool, per-range
// state shards, ascending-shard gradient reduction) produces history, AUC,
// sim time and step norms at GOMAXPROCS 4 and 8 bit-identical to the
// GOMAXPROCS 1 run.
func TestBatchParallelBitIdentical(t *testing.T) {
	f := newFixture(t)
	for name, model := range batchParallelModels(f) {
		runWith := func(procs int) *Result {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			cfg := f.config(t, func(c *Config) {
				c.Model = model()
				c.BatchPerWorker = 160
				c.EvalEvery = 3
				c.TrackConvergence = true
			})
			return run(t, cfg)
		}
		ref := runWith(1)
		for _, procs := range []int{4, 8} {
			sameResult(t, fmt.Sprintf("%s procs=%d", name, procs), runWith(procs), ref)
		}
	}
}

// TestEarlyStopMidEpoch covers the early-stop path: a run that converges
// mid-epoch returns from inside the iteration loop, and its result must
// still be the same at GOMAXPROCS 8 as at 1.
func TestEarlyStopMidEpoch(t *testing.T) {
	f := newFixture(t)
	runWith := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return run(t, f.config(t, func(c *Config) {
			c.Epochs = 2
			c.EvalEvery = 2
			c.TargetAUC = 0.01 // stops at the first evaluation
		}))
	}
	ref := runWith(1)
	got := runWith(8)
	if ref.ConvergedAt < 0 || got.ConvergedAt < 0 {
		t.Fatalf("fixture did not early-stop: GOMAXPROCS=1 %v, GOMAXPROCS=8 %v", ref.ConvergedAt, got.ConvergedAt)
	}
	if got.FinalAUC != ref.FinalAUC || got.TotalSimTime != ref.TotalSimTime {
		t.Fatalf("early-stopped run diverged across GOMAXPROCS: AUC %v/%v, sim time %v/%v",
			got.FinalAUC, ref.FinalAUC, got.TotalSimTime, ref.TotalSimTime)
	}
}

// TestPrepBatchMatchesMapDedup holds the staged prepBatch (fetch pass, then
// dedup pass) to a naive first-occurrence map dedup on random batches: full
// ones, a short final batch behind a full one (whose stale tail must not
// leak in), batches with heavy repetition, a batch whose every (sample,
// field) id is distinct — the dedup table's maximum load — and 10 000
// consecutive batches on one table, so nothing a batch leaves behind can
// leak into the next.
func TestPrepBatchMatchesMapDedup(t *testing.T) {
	f := newFixture(t)
	tr, err := NewTrainer(f.config(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	w := tr.workers[0]
	p := &w.prep
	fields := f.train.NumFields
	full := tr.cfg.BatchPerWorker
	rng := xrand.New(99)

	check := func(label string, batch []int32) {
		t.Helper()
		w.prepBatch(batch)
		samples := tr.cfg.Train.Samples
		var uniq []int32
		slot := map[int32]int32{}
		idx := make([]int32, 0, len(batch)*fields)
		labels := make([]float32, 0, len(batch))
		for _, si := range batch {
			labels = append(labels, samples[si].Label)
			for _, x := range samples[si].Features {
				s, ok := slot[x]
				if !ok {
					s = int32(len(uniq))
					slot[x] = s
					uniq = append(uniq, x)
				}
				idx = append(idx, s)
			}
		}
		if p.bs != len(batch) {
			t.Fatalf("%s: prep bs=%d, want %d", label, p.bs, len(batch))
		}
		if !slices.Equal(p.uniq, uniq) {
			t.Fatalf("%s: uniq differs from first-occurrence order (%d vs %d entries)", label, len(p.uniq), len(uniq))
		}
		if !slices.Equal(p.batchIdx[:len(idx)], idx) {
			t.Fatalf("%s: batchIdx differs from the map dedup", label)
		}
		if !slices.Equal(p.labels[:len(labels)], labels) {
			t.Fatalf("%s: labels differ", label)
		}
	}
	random := func(n int) []int32 {
		batch := make([]int32, n)
		for i := range batch {
			batch[i] = int32(rng.Intn(len(f.train.Samples)))
		}
		return batch
	}

	for i := 0; i < 20; i++ {
		check("full", random(full))
	}
	check("short final", random(full/3+1))
	check("single", random(1))
	check("empty", nil)
	repeated := random(full)
	for i := range repeated {
		repeated[i] = repeated[i%3] // three distinct samples, many duplicates
	}
	check("repeated", repeated)

	// Maximum load: a training set whose samples share no id, so a full
	// batch fills the dedup table with exactly batch×fields keys.
	orig := tr.cfg.Train
	distinct := *orig
	distinct.Samples = make([]dataset.Sample, full)
	allDistinct := make([]int32, full)
	for s := range distinct.Samples {
		feats := make([]int32, fields)
		for j := range feats {
			feats[j] = int32(s*fields + j)
		}
		distinct.Samples[s] = dataset.Sample{Features: feats, Label: float32(s % 2)}
		allDistinct[s] = int32(s)
	}
	distinct.Pack()
	tr.cfg.Train = &distinct
	check("all distinct", allDistinct)
	if len(p.uniq) != full*fields {
		t.Fatalf("all-distinct batch deduplicated to %d ids, want %d", len(p.uniq), full*fields)
	}
	tr.cfg.Train = orig

	// Consecutive batches on one table, every hundredth at maximum load.
	for i := 0; i < 10_000; i++ {
		if i%100 == 99 {
			tr.cfg.Train = &distinct
			check("consecutive, all distinct", allDistinct)
			tr.cfg.Train = orig
			continue
		}
		check("consecutive", random(1+rng.Intn(full)))
	}
}

// BenchmarkPrepBatch times one 256-sample batch through prepBatch (staging
// and dedup) on the tables of two benchmark workloads: embed-bound's Avazu
// slice (≈47 k features) and tiered-bigtable's 600 k-feature Criteo table.
// The dedup table is sized by the batch, not by the feature count.
func BenchmarkPrepBatch(b *testing.B) {
	const batch = 256
	for _, c := range []struct {
		name              string
		preset            string
		scale             float64
		samples, features int
	}{
		{"F47k", dataset.Avazu, 5e-3, 0, 0},
		{"F600k", dataset.Criteo, 1e-3, 80_000, 600_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg, err := dataset.PresetConfig(c.preset, c.scale, 22)
			if err != nil {
				b.Fatal(err)
			}
			if c.samples > 0 {
				cfg.NumSamples, cfg.NumFeatures = c.samples, c.features
			}
			ds, err := dataset.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			fields := ds.NumFields
			w := &worker{
				t:     &Trainer{cfg: Config{Train: ds, BatchPerWorker: batch}},
				dedup: idmap.New(batch * fields),
				prep:  newBatchPrep(batch, fields),
			}
			order := xrand.New(5).Perm32(len(ds.Samples))
			batches := len(order) / batch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % batches
				w.prepBatch(order[k*batch : (k+1)*batch])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*fields), "ns/edge")
		})
	}
}
