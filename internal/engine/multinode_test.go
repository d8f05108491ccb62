package engine

import (
	"testing"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/dataset"
	"hetgmp/internal/nn"
	"hetgmp/internal/partition"
)

func TestNICQueueDelayDirect(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	topo := cluster.ClusterB(2)
	g := f.g
	cfg := f.config(t, func(c *Config) {
		c.Topo = topo
		c.Assign = partition.Random(g, topo.NumWorkers(), 5)
	})
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No traffic: no delay.
	if got := tr.nicQueueDelay(); got != 0 {
		t.Fatalf("idle NIC delay %v", got)
	}
	// 1 MiB leaving node 0, spread over its workers.
	for wi := 0; wi < 8; wi++ {
		tr.workers[wi].iterNICOut = 1 << 17
	}
	want := float64(1<<20) / cluster.Ethernet10G.Bandwidth()
	if got := tr.nicQueueDelay(); got < want*0.99 || got > want*1.01 {
		t.Errorf("NIC delay %v, want ~%v", got, want)
	}
	// Full duplex: inbound on node 1 below outbound on node 0 does not
	// raise the worst case.
	tr.workers[8].iterNICIn = 1 << 10
	if got := tr.nicQueueDelay(); got < want*0.99 || got > want*1.01 {
		t.Errorf("NIC delay with small inbound %v, want ~%v", got, want)
	}
}

func TestNICQueueDelaySingleNodeFree(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	tr, err := NewTrainer(f.config(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	tr.workers[0].iterNICOut = 1 << 30
	if got := tr.nicQueueDelay(); got != 0 {
		t.Errorf("single-node NIC delay %v, want 0", got)
	}
}

func TestMultiNodeSlowerThanSingleNode(t *testing.T) {
	t.Parallel()
	// The same worker count split across machines must be slower: the
	// cross-node share of random-partition traffic hits the 10 GbE NICs.
	f := newFixture(t)
	oneNode := cluster.ClusterA(1) // 8 GPUs, one machine
	twoNode := &cluster.Topology{
		Name: "2x4", Nodes: 2, GPUsPerNode: 4, SocketsPerNode: 1,
		IntraSocket: cluster.PCIe, CrossSocket: cluster.QPI,
		Network: cluster.Ethernet10G, GPUFlops: 16e12, GPUEfficiency: 0.06,
		HostFlops: 1e12,
	}
	run := func(topo *cluster.Topology) float64 {
		cfg := f.config(t, func(c *Config) {
			c.Topo = topo
			c.Assign = partition.Random(f.g, topo.NumWorkers(), 5)
		})
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalSimTime
	}
	single := run(oneNode)
	double := run(twoNode)
	if double <= single {
		t.Errorf("2-node time %v not above 1-node %v", double, single)
	}
}

func TestHierarchicalPartitionReducesNICPressure(t *testing.T) {
	t.Parallel()
	// On two machines, a topology-aware partition must finish faster than
	// a random one — Figure 9a's mechanism at engine level. This needs a
	// dataset large enough for bandwidth (not per-message latency) to
	// matter, so it uses a bigger fixture than the other engine tests.
	ds, err := dataset.New(dataset.Criteo, 4e-4, 17)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.9)
	g := bigraph.FromDataset(train)
	topo := cluster.ClusterB(2)
	cfg := partition.DefaultHybridConfig(topo.NumWorkers())
	cfg.Rounds = 3
	cfg.Seed = 5
	cfg.BalanceSlack = 0.05
	cfg.Weights = topo.WeightMatrix(cluster.WeightHierarchical)
	hr, err := partition.Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(assign *partition.Assignment) float64 {
		tr, err := NewTrainer(Config{
			Train: train, Test: test,
			Model:          nn.NewWDL(nn.WDLConfig{Fields: train.NumFields, Dim: 16, Seed: 5}),
			Dim:            16,
			Topo:           topo,
			Assign:         assign,
			BatchPerWorker: 128,
			Epochs:         1,
			EvalEvery:      1 << 30,
			Seed:           5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalSimTime
	}
	random := run(partition.Random(g, topo.NumWorkers(), 5))
	hier := run(hr.Assignment)
	if hier >= random {
		t.Errorf("hierarchical time %v not below random %v", hier, random)
	}
}

// TestQueueDelayScratchAllocationFree pins that the per-iteration traffic
// tallies — nicQueueDelay's per-node totals and psRead's per-host counts —
// live in Trainer/worker scratch: the barrier and the PS gather allocate
// nothing. Not parallel: AllocsPerRun refuses to run beside other tests.
func TestQueueDelayScratchAllocationFree(t *testing.T) {
	f := newFixture(t)
	topo := cluster.ClusterB(2)
	tr, err := NewTrainer(f.config(t, func(c *Config) {
		c.Topo = topo
		c.Assign = partition.Random(f.g, topo.NumWorkers(), 5)
		c.PS = &PSConfig{Hosts: topo.Nodes}
	}))
	if err != nil {
		t.Fatal(err)
	}
	w := tr.workers[0]
	w.startEpoch()
	w.runIteration() // leaves a prepared batch in w.prep / w.embBuf
	if allocs := testing.AllocsPerRun(10, func() { tr.nicQueueDelay() }); allocs != 0 {
		t.Errorf("nicQueueDelay allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { w.psRead() }); allocs != 0 {
		t.Errorf("psRead allocates %v times per call, want 0", allocs)
	}
}
