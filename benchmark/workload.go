package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/comm"
	"hetgmp/internal/comm/tcpnet"
	"hetgmp/internal/consistency"
	"hetgmp/internal/dataset"
	"hetgmp/internal/embed"
	"hetgmp/internal/engine"
	"hetgmp/internal/nn"
	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
)

// spec is one benchmark workload. Every workload trains WDL under HET-GMP
// as systems.Build(HETGMP) assembles it — hybrid partition (3 rounds,
// hierarchical weights, 5 % balance slack), graph-bounded staleness s=100,
// overlap 0.6, AdaGrad — with 256 samples per worker per iteration; what
// varies is which layer the wall-clock second is spent in.
type spec struct {
	name string
	// why is the one line BENCHMARK.json carries for the workload.
	why string

	// The dataset is the named preset at scale; samples/features, when
	// positive, replace the preset's sizes (the preset's shape is kept).
	preset            string
	scale             float64
	samples, features int

	dim     int
	hidden  []int
	workers int
	epochs  int

	// tiered stores the table with a hot cache of features/8 rows and the
	// top features/2 ids spilled to mmap files in a temporary directory.
	tiered bool
	// tcp runs one rank per worker, shared-nothing, over loopback tcpnet.
	tcp bool

	// aucFloor is the lowest final AUC seen over twenty seeds, minus 0.03.
	aucFloor float64
}

var specs = []*spec{
	{
		name:   "dense-bound",
		why:    "hetgmp-train's default job: dense nn kernels take most of the CPU and embed little, so kernel work shows here and embed work must not",
		preset: dataset.Criteo, scale: 1e-3,
		dim: 32, hidden: []int{64, 32}, workers: 8, epochs: 1,
		aucFloor: 0.63,
	},
	{
		name:   "embed-bound",
		why:    "dense net shrunk to one 4-wide layer: embed Read/Update/Commit and batch prep outweigh nn, and the partitioner dominates set-up",
		preset: dataset.Avazu, scale: 5e-3,
		dim: 4, hidden: []int{4}, workers: 8, epochs: 2,
		aucFloor: 0.69,
	},
	{
		name:   "tiered-bigtable",
		why:    "a table far larger than its hot cache, rows served from warm arenas and mmap files: tier maintenance and resident memory show here",
		preset: dataset.Criteo, scale: 1e-3, samples: 80_000, features: 600_000,
		dim: 32, hidden: []int{4}, workers: 8, epochs: 1, tiered: true,
		aucFloor: 0.59,
	},
	{
		name:   "tcp-2rank",
		why:    "two shared-nothing ranks over loopback TCP: the only path through engine/dist.go, the coordinator and the wire codec",
		preset: dataset.Avazu, scale: 5e-3,
		dim: 8, hidden: []int{4}, workers: 2, epochs: 1, tcp: true,
		aucFloor: 0.68,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// quick shrinks a workload to a smoke-test size: same code paths, numbers
// of no value.
func (s *spec) quick() *spec {
	q := *s
	q.scale, q.samples, q.features = 1e-4, 0, 0
	if s.samples > 0 {
		q.samples, q.features = 4000, 20000
	}
	q.epochs = 1
	q.aucFloor = 0
	return &q
}

func (s *spec) ranks() int {
	if s.tcp {
		return s.workers
	}
	return 1
}

// recvTimeout bounds every collective receive of a tcp rank, so a dead peer
// fails the operation instead of hanging the benchmark.
const recvTimeout = 60 * time.Second

// inputs is everything a trainer is built from, made from the seed alone.
type inputs struct {
	spec        *spec
	seed        uint64
	train, test *dataset.Dataset
	graph       *bigraph.Bigraph
	assign      *partition.Assignment
	topo        *cluster.Topology
}

// prepare generates and splits the dataset, builds the bigraph and
// partitions it, one span per stage under parent.
func prepare(sp *spec, seed uint64, tr *tracer, parent int32) (*inputs, error) {
	id := tr.begin("dataset.generate", parent)
	cfg, err := dataset.PresetConfig(sp.preset, sp.scale, seed)
	if err != nil {
		return nil, err
	}
	if sp.samples > 0 {
		cfg.NumSamples, cfg.NumFeatures = sp.samples, sp.features
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: sp, seed: seed}
	in.train, in.test = ds.Split(0.9)
	tr.end(id)

	id = tr.begin("bigraph.build", parent)
	in.graph = bigraph.FromDataset(in.train)
	tr.end(id)

	if in.topo, err = cluster.ScaleOut(sp.workers); err != nil {
		return nil, err
	}
	id = tr.begin("partition.hybrid", parent)
	pc := partition.DefaultHybridConfig(sp.workers)
	pc.Seed = seed
	pc.Rounds = 3
	pc.BalanceSlack = 0.05
	pc.Weights = in.topo.WeightMatrix(cluster.WeightHierarchical)
	res, err := partition.Hybrid(in.graph, pc)
	if err != nil {
		return nil, err
	}
	in.assign = res.Assignment
	tr.end(id)
	return in, nil
}

// rank is one process-equivalent of a job: its own inputs, transport and
// trainer, as one `hetgmp-train -transport tcp` process would hold them. A
// single-process job has one rank and no transport.
type rank struct {
	in      *inputs
	tp      comm.Transport
	wire    *tracedTransport // tp as the traced trainer sees it
	trainer *engine.Trainer
	hooks   *hooks // nil unless the trainer was built traced
	// denseParams is the dense model's parameter count.
	denseParams int
	coldDir     string
}

// job is the set of ranks that train one model together. Their spans go to
// tr, their spill directories under tmp.
type job struct {
	ranks []*rank
	tr    *tracer
	tmp   string
}

// variant selects how trainers are built on a job's inputs.
type variant struct {
	// traced hands the engine wrapped layers that record spans.
	traced bool
	// check turns the runtime invariant checker on.
	check bool
}

// newTrainer builds the rank's trainer; a tcp rank first connects its
// transport through listeners[index].
func (r *rank) newTrainer(v variant, tr *tracer, parent int32, index int, listeners []net.Listener, tmp string) error {
	sp, in := r.in.spec, r.in
	proto, err := consistency.Resolve(consistency.GraphBounded, 100)
	if err != nil {
		return err
	}
	var model nn.Network = nn.NewWDL(nn.WDLConfig{Fields: in.train.NumFields, Dim: sp.dim, Hidden: sp.hidden, Seed: in.seed})
	cfg := engine.Config{
		Train: in.train, Test: in.test, Dim: sp.dim,
		Topo: in.topo, Assign: in.assign, Graph: in.graph,
		BatchPerWorker: 256, Epochs: sp.epochs,
		Staleness: proto.Staleness, InterCheck: proto.InterCheck, Normalize: proto.Normalize,
		Overlap: 0.6, EvalSamples: 8192, Seed: in.seed,
		CheckInvariants: v.check,
	}
	if sp.tcp {
		addrs := make([]string, len(listeners))
		for i, l := range listeners {
			addrs[i] = l.Addr().String()
		}
		id := tr.begin("comm.connect", parent)
		tp, err := tcpnet.Connect(tcpnet.Config{Rank: index, Peers: addrs, Listener: listeners[index]})
		tr.end(id)
		if err != nil {
			return err
		}
		r.tp = tp
		cfg.Dist = &engine.DistConfig{Transport: tp, RecvTimeout: recvTimeout}
	}
	if v.traced {
		r.hooks = &hooks{tr: tr}
		model = &tracedNet{Network: model, h: r.hooks}
		cfg.DenseOpt = wrapDense(optim.NewDenseAdaGrad(0.01, model.ParamCount()), r.hooks)
		cfg.EmbedOpt = wrapSparse(optim.NewAdaGrad(0.05, in.train.NumFeatures, sp.dim), r.hooks)
		if r.tp != nil {
			r.wire = &tracedTransport{Transport: r.tp, tr: tr}
			cfg.Dist.Transport = r.wire
		}
	}
	cfg.Model = model
	r.denseParams = model.ParamCount()
	if sp.tiered {
		if r.coldDir, err = os.MkdirTemp(tmp, "cold-"); err != nil {
			return err
		}
		f := in.train.NumFeatures
		cfg.Tiers = embed.TierConfig{HotRows: f / 8, ColdRows: f / 2, ColdDir: r.coldDir}
	}
	id := tr.begin("engine.new_trainer", parent)
	r.trainer, err = engine.NewTrainer(cfg)
	tr.end(id)
	return err
}

// close releases the rank's trainer, transport and spill directory.
func (r *rank) close() {
	if r.trainer != nil {
		r.trainer.Close()
	}
	if r.tp != nil {
		r.tp.Close()
	}
	if r.coldDir != "" {
		os.RemoveAll(r.coldDir)
	}
	*r = rank{in: r.in}
}

func (j *job) close() {
	for _, r := range j.ranks {
		r.close()
	}
}

// eachRank runs fn for every rank at once, as separate processes would, and
// returns the first error. A panic (the invariant checker's way of
// reporting) becomes that rank's error.
func (j *job) eachRank(fn func(i int, r *rank) error) error {
	errs := make([]error, len(j.ranks))
	var wg sync.WaitGroup
	for i, r := range j.ranks {
		wg.Add(1)
		go func(i int, r *rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("panic: %v", p)
				}
			}()
			errs[i] = fn(i, r)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

// build gives every rank a fresh trainer of the given variant, closing the
// previous ones. tcp ranks get a fresh mesh over pre-bound loopback
// listeners on kernel-chosen ports.
func (j *job) build(v variant, parent int32) error {
	j.close()
	// Collect the closed trainers before allocating their successors: a
	// user's process holds one trainer, not the last one's garbage as well.
	runtime.GC()
	var listeners []net.Listener
	if j.ranks[0].in.spec.tcp {
		for range j.ranks {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll(listeners)
				return err
			}
			listeners = append(listeners, l)
		}
	}
	err := j.eachRank(func(i int, r *rank) error {
		return r.newTrainer(v, j.tr, parent, i, listeners, j.tmp)
	})
	if err != nil {
		closeAll(listeners) // those Connect did not get to close itself
		j.close()
		return err
	}
	// And once more with the trainers in place, so every run starts from a
	// collected heap and the collector paces it against the whole live set.
	runtime.GC()
	return nil
}

func closeAll(ls []net.Listener) {
	for _, l := range ls {
		l.Close()
	}
}

// setup is one full set-up as a user pays it before the first iteration:
// dataset, bigraph, partition, (connect,) trainer — every rank for itself.
func setup(sp *spec, seed uint64, tr *tracer, tmp string) (*job, error) {
	root := tr.begin("setup", noParent)
	defer tr.end(root)
	j := &job{tr: tr, tmp: tmp}
	for i := 0; i < sp.ranks(); i++ {
		j.ranks = append(j.ranks, &rank{})
	}
	err := j.eachRank(func(i int, r *rank) (err error) {
		r.in, err = prepare(sp, seed, tr, root)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := j.build(variant{}, root); err != nil {
		return nil, err
	}
	return j, nil
}

// derived is a single-process job over rank 0's inputs with the spec
// altered: the flat twin of a tiered job, the simulated twin of a tcp one.
func (j *job) derived(edit func(*spec)) *job {
	in := *j.ranks[0].in
	sp := *in.spec
	edit(&sp)
	in.spec = &sp
	return &job{ranks: []*rank{{in: &in}}, tr: j.tr, tmp: j.tmp}
}

// run trains every rank to completion and returns the ranks' results,
// index-aligned, and the wall time until the slowest rank finished.
func (j *job) run() ([]*engine.Result, time.Duration, error) {
	results := make([]*engine.Result, len(j.ranks))
	start := time.Now()
	err := j.eachRank(func(i int, r *rank) error {
		if r.hooks != nil {
			r.hooks.run = j.tr.begin("engine.run", noParent)
			defer j.tr.end(r.hooks.run)
			if r.wire != nil {
				r.wire.parent = r.hooks.run
			}
		}
		res, err := r.trainer.Run()
		if err != nil && r.tp != nil {
			// The peers are blocked in a collective with this rank; closing
			// the link fails them now instead of after recvTimeout.
			r.tp.Close()
		}
		results[i] = res
		return err
	})
	return results, time.Since(start), err
}
