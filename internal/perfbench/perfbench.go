// Package perfbench is the reproducible performance-baseline harness for
// the partitioner. It times the strictly sequential
// reference greedy against the parallel chunked-delta implementation on
// synthetic graphs of growing scale — via testing.Benchmark, so ns/op and
// allocs/op come from the standard benchmark machinery rather than ad-hoc
// stopwatches — and optionally one simulated training epoch on the
// resulting assignment. hetgmp-bench -perf writes the report to
// BENCH_partition.json, giving every future optimisation a before/after
// ledger produced by one command.
//
// Runs from the hetgmp-bench binary leave the runtime invariant checker in
// its production-off state, so the numbers reflect what a real partitioning
// call pays; under `go test` the checker is force-enabled and the same code
// paths are correctness-checked instead.
package perfbench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/dataset"
	"hetgmp/internal/engine"
	"hetgmp/internal/nn"
	"hetgmp/internal/obs"
	"hetgmp/internal/obs/analyze"
	"hetgmp/internal/partition"
)

// Options selects what to measure.
type Options struct {
	// Scales are dataset scale factors passed to dataset.New, smallest
	// first. Default {1e-3, 2.5e-3, 5e-3} — roughly 40k to 200k samples.
	Scales []float64
	// Dataset preset name; default "avazu".
	Dataset string
	// Partitions (default 8, the paper's setting) and Rounds (default 5).
	Partitions int
	Rounds     int
	Seed       uint64
	// TrainEpoch also times one simulated training epoch at the largest
	// scale, on the chunked partitioner's assignment.
	TrainEpoch bool
}

func (o *Options) defaults() {
	if len(o.Scales) == 0 {
		o.Scales = []float64{1e-3, 2.5e-3, 5e-3}
	}
	if o.Dataset == "" {
		o.Dataset = dataset.Avazu
	}
	if o.Partitions == 0 {
		o.Partitions = 8
	}
	if o.Rounds == 0 {
		o.Rounds = 5
	}
	if o.Seed == 0 {
		o.Seed = 22
	}
}

// PartitionerMetrics is one implementation's measurement at one scale.
type PartitionerMetrics struct {
	NsPerOp        int64 `json:"ns_per_op"`
	AllocsPerOp    int64 `json:"allocs_per_op"`
	BytesPerOp     int64 `json:"bytes_per_op"`
	RemoteAccesses int64 `json:"remote_accesses"`
}

// ScaleResult compares reference vs chunked at one graph scale.
type ScaleResult struct {
	Scale     float64            `json:"scale"`
	Samples   int                `json:"samples"`
	Features  int                `json:"features"`
	Edges     int64              `json:"edges"`
	Reference PartitionerMetrics `json:"reference"`
	Chunked   PartitionerMetrics `json:"chunked"`
	// Speedup is reference ns/op over chunked ns/op.
	Speedup float64 `json:"speedup"`
	// RemoteRatio is chunked remote accesses over reference remote
	// accesses — the partition-quality cost (if any) of the parallel
	// implementation. The acceptance bar is ≤ 1.02.
	RemoteRatio float64 `json:"remote_ratio"`
}

// EpochMetrics times one simulated training epoch, with the obs layer's
// per-phase decomposition of where the simulated time went.
type EpochMetrics struct {
	Scale            float64 `json:"scale"`
	WallSeconds      float64 `json:"wall_seconds"`
	Iterations       int64   `json:"iterations"`
	SamplesProcessed int64   `json:"samples_processed"`
	SimSeconds       float64 `json:"sim_seconds"`

	// Critical-path split from engine.Result.
	ComputeSeconds float64 `json:"compute_seconds"`
	EmbCommSeconds float64 `json:"emb_comm_seconds"`
	DenseSeconds   float64 `json:"dense_seconds"`
	CommFraction   float64 `json:"comm_fraction"`
	// Phases maps each engine phase (embed-fetch, compute, grad-push,
	// allreduce, staleness-wait, flush) to summed simulated seconds across
	// all workers, from the engine.phase.* histograms.
	Phases map[string]float64 `json:"phases,omitempty"`
}

// Report is the BENCH_partition.json payload.
type Report struct {
	// Meta stamps the run's identity and environment (go version,
	// GOMAXPROCS, git commit, config hash) so two baseline files can be
	// checked for comparability before their numbers are.
	Meta       analyze.Meta  `json:"meta"`
	Dataset    string        `json:"dataset"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Partitions int           `json:"partitions"`
	Rounds     int           `json:"rounds"`
	Seed       uint64        `json:"seed"`
	Scales     []ScaleResult `json:"scales"`
	Epoch      *EpochMetrics `json:"epoch,omitempty"`
}

// Run executes the harness. Progress lines go to stderr since a full run
// takes tens of seconds at the default scales.
func Run(opts Options) (*Report, error) {
	opts.defaults()
	rep := &Report{
		Meta: analyze.CollectMeta(analyze.HashConfig(
			opts.Dataset, opts.Scales, opts.Partitions, opts.Rounds, opts.Seed, opts.TrainEpoch)),
		Dataset:    opts.Dataset,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Partitions: opts.Partitions,
		Rounds:     opts.Rounds,
		Seed:       opts.Seed,
	}
	var lastDS *dataset.Dataset
	var lastGraph *bigraph.Bigraph
	for _, scale := range opts.Scales {
		ds, err := dataset.New(opts.Dataset, scale, opts.Seed)
		if err != nil {
			return nil, err
		}
		g := bigraph.FromDataset(ds)
		sr := ScaleResult{
			Scale:    scale,
			Samples:  g.NumSamples,
			Features: g.NumFeatures,
			Edges:    g.NumEdges(),
		}
		fmt.Fprintf(os.Stderr, "perfbench: scale %g (%d samples, %d features, %d edges)\n",
			scale, sr.Samples, sr.Features, sr.Edges)
		sr.Reference, err = benchPartitioner(g, opts, true)
		if err != nil {
			return nil, err
		}
		sr.Chunked, err = benchPartitioner(g, opts, false)
		if err != nil {
			return nil, err
		}
		sr.Speedup = float64(sr.Reference.NsPerOp) / float64(sr.Chunked.NsPerOp)
		sr.RemoteRatio = float64(sr.Chunked.RemoteAccesses) / float64(sr.Reference.RemoteAccesses)
		rep.Scales = append(rep.Scales, sr)
		lastDS, lastGraph = ds, g
	}
	if opts.TrainEpoch && lastDS != nil {
		em, err := benchEpoch(lastDS, lastGraph, opts)
		if err != nil {
			return nil, err
		}
		rep.Epoch = em
	}
	return rep, nil
}

// benchPartitioner times one implementation with the standard benchmark
// machinery and reads the final round's RemoteAccesses off the last run.
func benchPartitioner(g *bigraph.Bigraph, opts Options, reference bool) (PartitionerMetrics, error) {
	cfg := partition.DefaultHybridConfig(opts.Partitions)
	cfg.Rounds = opts.Rounds
	cfg.Seed = opts.Seed
	cfg.Reference = reference
	var remote int64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := partition.Hybrid(g, cfg)
			if err != nil {
				runErr = err
				b.FailNow()
			}
			remote = res.Rounds[len(res.Rounds)-1].RemoteAccesses
		}
	})
	if runErr != nil {
		return PartitionerMetrics{}, runErr
	}
	return PartitionerMetrics{
		NsPerOp:        br.NsPerOp(),
		AllocsPerOp:    br.AllocsPerOp(),
		BytesPerOp:     br.AllocedBytesPerOp(),
		RemoteAccesses: remote,
	}, nil
}

// benchEpoch times one simulated training epoch on the chunked assignment.
func benchEpoch(ds *dataset.Dataset, g *bigraph.Bigraph, opts Options) (*EpochMetrics, error) {
	cfg := partition.DefaultHybridConfig(opts.Partitions)
	cfg.Rounds = opts.Rounds
	cfg.Seed = opts.Seed
	pres, err := partition.Hybrid(g, cfg)
	if err != nil {
		return nil, err
	}
	topo := cluster.EightGPUQPI()
	if topo.NumWorkers() != opts.Partitions {
		return nil, fmt.Errorf("perfbench: epoch timing needs %d partitions to match the topology, got %d",
			topo.NumWorkers(), opts.Partitions)
	}
	reg := obs.NewRegistry(opts.Partitions)
	tr, err := engine.NewTrainer(engine.Config{
		Train: ds, Test: ds,
		Model: nn.NewWDL(nn.WDLConfig{
			Fields: ds.NumFields, Dim: 8, Hidden: []int{16}, Seed: opts.Seed,
		}),
		Dim:            8,
		Topo:           topo,
		Assign:         pres.Assignment,
		BatchPerWorker: 256,
		Epochs:         1,
		EvalEvery:      1 << 30,
		Seed:           opts.Seed,
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := tr.Run()
	if err != nil {
		return nil, err
	}
	em := &EpochMetrics{
		Scale:            opts.Scales[len(opts.Scales)-1],
		WallSeconds:      time.Since(start).Seconds(),
		Iterations:       int64(res.Iterations),
		SamplesProcessed: res.SamplesProcessed,
		SimSeconds:       res.TotalSimTime,
		ComputeSeconds:   res.ComputeSeconds,
		EmbCommSeconds:   res.EmbCommSeconds,
		DenseSeconds:     res.DenseSeconds,
		CommFraction:     res.CommFraction(),
		Phases:           make(map[string]float64),
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if m, ok := res.Metrics.Get("engine.phase." + p.String() + ".sim_nanos"); ok && m.Count > 0 {
			em.Phases[p.String()] = float64(m.Sum) / 1e9
		}
	}
	return em, nil
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
