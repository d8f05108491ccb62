package engine

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/comm"
	"hetgmp/internal/comm/tcpnet"
	"hetgmp/internal/consistency"
	"hetgmp/internal/dataset"
	"hetgmp/internal/nn"
	"hetgmp/internal/partition"
)

// TestEngineRaceStress trains 4 workers for 3 epochs under every
// consistency protocol with randomized seeds, invariant checking on. Run
// with -race (CI does) it doubles as the concurrency soak for the engine's
// two-phase execution discipline: worker goroutines sharing the table and
// fabric must neither race nor violate the Section 5.3 clock contracts.
func TestEngineRaceStress(t *testing.T) {
	t.Parallel()
	topo, err := cluster.ScaleOut(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		protocol  consistency.Protocol
		staleness int64
		seed      uint64
	}{
		{consistency.BSP, 0, 101},
		{consistency.ASP, 0, 202},
		{consistency.Bounded, 7, 303},
		{consistency.GraphBounded, 7, 404},
	}
	for _, tc := range cases {
		t.Run(tc.protocol.String(), func(t *testing.T) {
			t.Parallel() // protocols stress the scheduler against each other
			ds, err := dataset.New(dataset.Avazu, 1e-4, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			train, test := ds.Split(0.9)
			g := bigraph.FromDataset(train)
			pcfg := partition.DefaultHybridConfig(4)
			pcfg.Rounds = 2
			pcfg.Seed = tc.seed
			hr, err := partition.Hybrid(g, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := consistency.Resolve(tc.protocol, tc.staleness)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewTrainer(Config{
				Train: train, Test: test,
				Model:           nn.NewWDL(nn.WDLConfig{Fields: train.NumFields, Dim: 8, Hidden: []int{16}, Seed: tc.seed}),
				Dim:             8,
				Topo:            topo,
				Assign:          hr.Assignment,
				BatchPerWorker:  48,
				Epochs:          3,
				Staleness:       pc.Staleness,
				InterCheck:      pc.InterCheck,
				Normalize:       pc.Normalize,
				EvalEvery:       1 << 30,
				CheckInvariants: true,
				Seed:            tc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tr.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.SamplesProcessed != 3*int64(len(train.Samples)) {
				t.Errorf("processed %d samples, want %d", res.SamplesProcessed, 3*len(train.Samples))
			}
			if res.Invariants.Checks == 0 {
				t.Fatal("stress run evaluated no invariant checks")
			}
			if res.Invariants.Violations != 0 {
				t.Fatalf("stress run violated invariants: %+v", res.Invariants)
			}
			if res.FinalAUC <= 0.45 {
				t.Errorf("%s degenerate AUC %v", tc.protocol, res.FinalAUC)
			}
			if err := tr.fabric.CheckTotals(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The protocol list itself is part of the contract: a new protocol must
	// be added to this stress table.
	if len(cases) != len(consistency.Protocols) {
		t.Fatal(fmt.Sprintf("stress table covers %d protocols, consistency exports %d", len(cases), len(consistency.Protocols)))
	}
}

// distStressMesh builds a connected transport mesh for the dist stress
// test: the in-memory backend directly, or a real loopback TCP mesh with
// pre-bound listeners so the peer list is known before any rank connects.
func distStressMesh(t testing.TB, backend string, n int) []comm.Transport {
	t.Helper()
	if backend == "mem" {
		mts := comm.NewMemNetwork(n)
		ts := make([]comm.Transport, n)
		for i, m := range mts {
			ts[i] = m
		}
		return ts
	}
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for r := 0; r < n; r++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[r] = lis
		peers[r] = lis.Addr().String()
	}
	ts := make([]comm.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = tcpnet.Connect(tcpnet.Config{
				Rank: r, Peers: peers, Listener: listeners[r], DialTimeout: 30 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	return ts
}

// TestEngineRaceStressDist is the distributed twin of TestEngineRaceStress:
// the same job trained as N replicated ranks over each transport backend,
// one full Trainer per rank in its own goroutine. Under -race it soaks the
// transport queues, the collective exchanges and the replay path; the
// cross-rank checks pin that replication stayed bit-exact under scheduler
// pressure.
func TestEngineRaceStressDist(t *testing.T) {
	t.Parallel()
	const n = 3
	for _, backend := range []string{"mem", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			t.Parallel() // backends stress the scheduler against each other
			ts := distStressMesh(t, backend, n)
			defer func() {
				for _, tr := range ts {
					tr.Close()
				}
			}()
			build := func(rank int) (*Trainer, error) {
				const seed = 404
				topo, err := cluster.ScaleOut(n)
				if err != nil {
					return nil, err
				}
				ds, err := dataset.New(dataset.Avazu, 1e-4, seed)
				if err != nil {
					return nil, err
				}
				train, test := ds.Split(0.9)
				g := bigraph.FromDataset(train)
				pcfg := partition.DefaultHybridConfig(n)
				pcfg.Rounds = 2
				pcfg.Seed = seed
				hr, err := partition.Hybrid(g, pcfg)
				if err != nil {
					return nil, err
				}
				pc, err := consistency.Resolve(consistency.GraphBounded, 7)
				if err != nil {
					return nil, err
				}
				return NewTrainer(Config{
					Train: train, Test: test,
					Model:           nn.NewWDL(nn.WDLConfig{Fields: train.NumFields, Dim: 8, Hidden: []int{16}, Seed: seed}),
					Dim:             8,
					Topo:            topo,
					Assign:          hr.Assignment,
					BatchPerWorker:  48,
					Epochs:          2,
					Staleness:       pc.Staleness,
					InterCheck:      pc.InterCheck,
					Normalize:       pc.Normalize,
					EvalEvery:       1 << 30,
					CheckInvariants: true,
					Seed:            seed,
					Dist:            &DistConfig{Transport: ts[rank], RecvTimeout: 2 * time.Minute},
				})
			}
			results := make([]*Result, n)
			ckpts := make([][]byte, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					tr, err := build(r)
					if err != nil {
						errs[r] = err
						return
					}
					res, err := tr.Run()
					if err != nil {
						errs[r] = err
						return
					}
					var buf bytes.Buffer
					if err := tr.SaveCheckpoint(&buf); err != nil {
						errs[r] = err
						return
					}
					results[r], ckpts[r] = res, buf.Bytes()
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			for r := 0; r < n; r++ {
				res := results[r]
				if res.Invariants.Checks == 0 || res.Invariants.Violations != 0 {
					t.Fatalf("rank %d invariants: %+v", r, res.Invariants)
				}
				if res.FinalAUC <= 0.45 {
					t.Errorf("rank %d degenerate AUC %v", r, res.FinalAUC)
				}
				if r == 0 {
					continue
				}
				if !bytes.Equal(ckpts[r], ckpts[0]) {
					t.Errorf("rank %d checkpoint diverged from rank 0", r)
				}
				if res.TotalSimTime != results[0].TotalSimTime {
					t.Errorf("rank %d simulated clock %v, rank 0 %v", r, res.TotalSimTime, results[0].TotalSimTime)
				}
				if res.Breakdown != results[0].Breakdown {
					t.Errorf("rank %d breakdown %+v, rank 0 %+v", r, res.Breakdown, results[0].Breakdown)
				}
			}
		})
	}
}
