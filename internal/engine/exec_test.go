package engine

import (
	"fmt"
	"runtime"
	"testing"

	"hetgmp/internal/cluster"
	"hetgmp/internal/partition"
)

// TestExecPoolMatchesReference pins the engine's execution contract: the
// persistent worker pool, chunked dense sweeps, batch-parallel dense math
// and parallel sharded commit produce a Result — history, AUC, sim time,
// step norms, traffic — at GOMAXPROCS 4 and 8 bit-identical to the one
// GOMAXPROCS 1 produces, where every sweep runs serially.
func TestExecPoolMatchesReference(t *testing.T) {
	f := newFixture(t)
	runWith := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := f.config(t, func(c *Config) {
			c.Epochs = 2
			c.EvalEvery = 3
			c.TrackConvergence = true
		})
		return run(t, cfg)
	}
	ref := runWith(1)
	for _, procs := range []int{4, 8} {
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		got := runWith(procs)
		sameResult(t, label, got, ref)
		for i := range ref.TrafficMatrix {
			for j := range ref.TrafficMatrix[i] {
				if got.TrafficMatrix[i][j] != ref.TrafficMatrix[i][j] {
					t.Fatalf("%s: traffic[%d][%d] differs", label, i, j)
				}
			}
		}
	}
}

// TestExecPSModeMatchesReference covers the PS path (applyWorkerDense, host
// queueing) under the pool and chunked dense apply: GOMAXPROCS 4 and 8
// against GOMAXPROCS 1.
func TestExecPSModeMatchesReference(t *testing.T) {
	f := newFixture(t)
	runWith := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return run(t, f.config(t, func(c *Config) { c.PS = &PSConfig{Hosts: 2} }))
	}
	ref := runWith(1)
	for _, procs := range []int{4, 8} {
		sameResult(t, fmt.Sprintf("PS mode GOMAXPROCS=%d", procs), runWith(procs), ref)
	}
}

// TestIdleWorkerZeroNICQueueDelay is the regression test for the stale
// NIC-counter bug: a worker that goes idle right after a busy iteration
// used to keep its last iteration's cross-node byte counts, charging its
// node's NIC for traffic that had already gated an earlier barrier.
func TestIdleWorkerZeroNICQueueDelay(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	cfg := f.config(t, func(c *Config) {
		c.Topo = cluster.ClusterA(2)
		c.Assign = partition.Random(f.g, cluster.ClusterA(2).NumWorkers(), 5)
	})
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the hand-off: every worker finished a busy iteration with
	// cross-node traffic, then has no work in the next one.
	for _, w := range tr.workers {
		w.iterNICOut, w.iterNICIn = 1<<30, 1<<30
	}
	if d := tr.nicQueueDelay(); d <= 0 {
		t.Fatal("fixture is degenerate: busy NIC counters produce no queueing delay")
	}
	for _, w := range tr.workers {
		w.resetIdle()
	}
	if d := tr.nicQueueDelay(); d != 0 {
		t.Fatalf("idle workers contribute NIC queueing delay %v, want 0", d)
	}
}

// TestPoolStress drives the persistent pool through repeated short runs so
// `go test -race` covers the dispatch/complete hand-off and the parallel
// commit + dense sweeps under real concurrency.
func TestPoolStress(t *testing.T) {
	f := newFixture(t)
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	var first *Result
	for i := 0; i < 3; i++ {
		res := run(t, f.config(t, func(c *Config) { c.TrackConvergence = true }))
		if first == nil {
			first = res
			continue
		}
		if res.FinalAUC != first.FinalAUC || res.TotalSimTime != first.TotalSimTime {
			t.Fatalf("run %d diverged: AUC %v/%v, sim time %v/%v",
				i, res.FinalAUC, first.FinalAUC, res.TotalSimTime, first.TotalSimTime)
		}
	}
}
