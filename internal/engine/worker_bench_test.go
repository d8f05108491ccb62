package engine

import (
	"testing"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/dataset"
	"hetgmp/internal/nn"
	"hetgmp/internal/obs"
	"hetgmp/internal/partition"
)

// benchTrainer builds a trainer on a small Avazu slice for isolating one
// worker's iteration cost. A non-nil registry attaches the full metrics
// instrumentation (table, fabric, engine).
func benchTrainer(b *testing.B, reg *obs.Registry) *Trainer {
	b.Helper()
	ds, err := dataset.New(dataset.Avazu, 1e-4, 17)
	if err != nil {
		b.Fatal(err)
	}
	train, test := ds.Split(0.9)
	g := bigraph.FromDataset(train)
	topo := cluster.EightGPUQPI()
	cfg := Config{
		Train: train, Test: test,
		Model:          nn.NewWDL(nn.WDLConfig{Fields: train.NumFields, Dim: 8, Hidden: []int{16}, Seed: 5}),
		Dim:            8,
		Topo:           topo,
		Assign:         partition.Random(g, topo.NumWorkers(), 5),
		BatchPerWorker: 64,
		Epochs:         1,
		EvalEvery:      1 << 30,
		Seed:           5,
		Metrics:        reg,
	}
	tr, err := NewTrainer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkWorkerIteration measures one worker's mini-batch step — the unit
// the simulated training loop repeats millions of times — followed by the
// table Commit that Run issues after every iteration. Without the Commit the
// shard's queue arena would grow on every call, and allocs/op would time
// that growth instead of the step. The allocs/op figure pins the
// steady-state step: batch dedup, gather, scatter and queueing reuse their
// buffers.
func BenchmarkWorkerIteration(b *testing.B) {
	benchIterations(b, benchTrainer(b, nil))
}

// BenchmarkWorkerIterationObs is the same step with the metrics registry
// attached — every table read observes two histograms and bumps the striped
// counters, every transfer ticks the fabric ledger metrics. The acceptance
// bar is ≤5% over BenchmarkWorkerIteration.
func BenchmarkWorkerIterationObs(b *testing.B) {
	benchIterations(b, benchTrainer(b, obs.NewRegistry(cluster.EightGPUQPI().NumWorkers())))
}

// benchIterations times worker 0's iteration plus the Commit that drains
// what it queued.
func benchIterations(b *testing.B, tr *Trainer) {
	w := tr.workers[0]
	w.startEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.hasWork() {
			w.startEpoch()
		}
		w.runIteration()
		tr.table.Commit()
	}
}

// BenchmarkTrainerEvaluate measures one Evaluate pass over the fixture's
// test split: 512-row forwards through the forward-only eval state, which
// the first call builds, then the AUC.
func BenchmarkTrainerEvaluate(b *testing.B) {
	tr := benchTrainer(b, nil)
	tr.Evaluate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Evaluate()
	}
}
