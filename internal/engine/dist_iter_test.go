package engine

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/dataset"
	"hetgmp/internal/nn"
	"hetgmp/internal/partition"
)

// distTCPPair builds both ranks of a 2-rank job over a loopback tcpnet mesh,
// shaped like the benchmark's tcp-2rank workload (dim 8, one 4-wide hidden
// layer, 256 samples per worker), each with the batch-parallel model pool
// Run would attach. The cleanup closes pools and transports.
func distTCPPair(tb testing.TB) [2]*Trainer {
	tb.Helper()
	ds, err := dataset.New(dataset.Avazu, 1e-3, 17)
	if err != nil {
		tb.Fatal(err)
	}
	train, test := ds.Split(0.9)
	topo, err := cluster.ScaleOut(2)
	if err != nil {
		tb.Fatal(err)
	}
	assign := partition.Random(bigraph.FromDataset(train), 2, 5)
	ts := distStressMesh(tb, "tcp", 2)
	var pair [2]*Trainer
	for r := range pair {
		tr, err := NewTrainer(Config{
			Train: train, Test: test,
			Model:          nn.NewWDL(nn.WDLConfig{Fields: train.NumFields, Dim: 8, Hidden: []int{4}, Seed: 5}),
			Dim:            8,
			Topo:           topo,
			Assign:         assign,
			BatchPerWorker: 256,
			Epochs:         1,
			EvalEvery:      1 << 30,
			Seed:           5,
			Dist:           &DistConfig{Transport: ts[r], RecvTimeout: time.Minute},
		})
		if err != nil {
			tb.Fatal(err)
		}
		pool := nn.NewPool(maxParallelism())
		tr.model.SetPool(pool)
		pair[r] = tr
		tb.Cleanup(func() {
			tr.model.SetPool(nil)
			pool.Close()
		})
	}
	tb.Cleanup(func() {
		for _, tp := range ts {
			tp.Close()
		}
	})
	for _, tr := range pair {
		for _, w := range tr.workers {
			w.startEpoch()
		}
	}
	return pair
}

// distStep runs one distributed iteration on this rank as Run does: the
// exchange and replay, the dense reduce, the Commit that drains the peers'
// queued updates, and the release of their frames. An epoch that ran out
// of samples restarts, so a caller can step any number of times.
func (t *Trainer) distStep() error {
	busy := false
	for _, w := range t.workers {
		busy = busy || w.hasWork()
	}
	if !busy {
		for _, w := range t.workers {
			w.startEpoch()
		}
	}
	if err := t.distIterate(); err != nil {
		return err
	}
	t.reduceDense()
	t.table.Commit()
	t.dist.release()
	return nil
}

// stepPair runs iters distributed iterations on both ranks, one goroutine
// per rank, and fails tb on the first error.
func stepPair(tb testing.TB, pair [2]*Trainer, iters int) {
	var wg sync.WaitGroup
	errs := make([]error, len(pair))
	for r, tr := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && errs[r] == nil; i++ {
				errs[r] = tr.distStep()
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", r, err)
		}
	}
}

// BenchmarkDistIteration times one iteration of a 2-rank loopback-tcpnet job
// — both ranks, each computing its worker, exchanging its iteration frame
// and replaying its peer's — and reports the allocation of the pair: B/op
// and allocs/op are summed over both ranks and their transports' reader
// goroutines.
func BenchmarkDistIteration(b *testing.B) {
	pair := distTCPPair(b)
	stepPair(b, pair, 8) // warm the frame buffers and the arenas
	b.ReportAllocs()
	b.ResetTimer()
	stepPair(b, pair, b.N)
}

// TestDistIterationAllocation pins the steady state of the distributed
// iteration's memory traffic: a rank allocates at most 4 KiB of heap per
// iteration — frames are encoded into a reused buffer, received into
// released ones, and replayed in place. The job runs 100 warm-up iterations,
// then four windows of 50; the best window is the steady state. Each link
// lends a second receive buffer the first time its reader runs a frame
// ahead of the application. That depends on scheduling, so it may land in
// any window, once per link; a cost paid every iteration shows in all four.
func TestDistIterationAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2-rank TCP job")
	}
	const warm, windows, iters, perRankIter = 100, 4, 50, 4 << 10
	pair := distTCPPair(t)
	stepPair(t, pair, warm)
	best := math.Inf(1)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stepPair(t, pair, iters)
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(pair)*iters)
		t.Logf("%.0f heap bytes and %.1f allocations per rank per iteration", got,
			float64(after.Mallocs-before.Mallocs)/float64(len(pair)*iters))
		best = min(best, got)
	}
	if best > perRankIter {
		t.Errorf("a rank allocates %.0f heap bytes per iteration in its best window, want at most %d", best, perRankIter)
	}
}
