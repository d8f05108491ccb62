// Package systems assembles the five training systems the paper evaluates
// (Section 7) from the engine's building blocks:
//
//   - TF-PS: TensorFlow's parameter-server architecture. Embeddings and
//     dense weights live on CPU hosts; every lookup and update crosses the
//     CPU link; no AllReduce barrier (ASP).
//   - Parallax: the hybrid architecture of Kim et al. — sparse parameters
//     through a PS, dense parameters through AllReduce.
//   - HugeCTR: NVIDIA's GPU model parallelism — the embedding table is
//     hash-partitioned across GPU memory, reads/updates are peer-to-peer,
//     dense weights use AllReduce, strict synchronisation.
//   - HET-MP: the paper's auxiliary baseline — HET-GMP's backbone with
//     random partitioning and no replication, deliberately equivalent to
//     HugeCTR's design ("they select the same system design").
//   - HET-GMP: hybrid iterative graph partitioning (Algorithm 1), top-1%
//     secondary replication, graph-based bounded asynchrony with intra and
//     inter checks, and communication/compute overlap.
package systems

import (
	"fmt"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/consistency"
	"hetgmp/internal/dataset"
	"hetgmp/internal/embed"
	"hetgmp/internal/engine"
	"hetgmp/internal/nn"
	"hetgmp/internal/obs"
	"hetgmp/internal/partition"
)

// System names a baseline.
type System string

// The five systems of the paper's evaluation.
const (
	TFPS     System = "tf-ps"
	Parallax System = "parallax"
	HugeCTR  System = "hugectr"
	HETMP    System = "het-mp"
	HETGMP   System = "het-gmp"
)

// All lists the systems in the paper's presentation order.
var All = []System{TFPS, Parallax, HugeCTR, HETMP, HETGMP}

// Options configures a system build.
type Options struct {
	Train *dataset.Dataset
	Test  *dataset.Dataset
	// ModelName selects the workload: "wdl" or "dcn".
	ModelName string
	Topo      *cluster.Topology

	Dim            int
	BatchPerWorker int
	Epochs         int

	// Staleness is HET-GMP's bound s; ignored by the other systems.
	Staleness int64
	// PartitionRounds is Algorithm 1's T for HET-GMP (default 3).
	PartitionRounds int
	// ReplicaFraction is HET-GMP's secondary share (default 0.01).
	ReplicaFraction float64
	// WeightPolicy prices cross-partition edges for HET-GMP's partitioner
	// (default WeightHierarchical).
	WeightPolicy cluster.WeightPolicy
	// UniformWeights forces the non-hierarchical policy regardless of
	// WeightPolicy (Figure 9a's "non-hierarchical" arm).
	UniformWeights bool

	TargetAUC   float64
	EvalEvery   int
	EvalSamples int
	Seed        uint64

	// CheckInvariants enables the runtime invariant checker (package
	// invariant) for the run; always on under `go test`.
	CheckInvariants bool

	// Metrics, when non-nil, receives metrics from every layer of the run
	// (engine, table, fabric, and — via BuildAssignment — the partitioner);
	// the final snapshot surfaces in engine.Result.Metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records per-worker phase spans on the simulated
	// clock (Chrome trace_event exportable).
	Tracer *obs.Tracer
	// Report, when true, asks the engine to run the critical-path analyzer
	// over the finished run and attach the RunReport to engine.Result.
	// Requires both Metrics and Tracer.
	Report bool

	// Dist attaches the trainer to a multi-rank transport mesh: this
	// process computes one worker and exchanges iteration effects with its
	// peers over Dist.Transport (see engine/dist.go). The simulated result
	// is bit-identical to a single-process run of the same Options.
	Dist *engine.DistConfig

	// Tiers selects the embedding table's storage layout (hot and warm
	// heap rows + cold spill, placed by access rank). Result-invariant: a
	// tiered run is bit-identical to a flat one.
	Tiers embed.TierConfig
}

// NewModel builds the named CTR network for a dataset shape. The paper
// evaluates WDL and DCN; DeepFM is included as one of the additional
// embedding models Section 5.1 claims the bigraph abstraction supports.
func NewModel(name string, fields, dim int, seed uint64) (nn.Network, error) {
	switch name {
	case "wdl", "":
		return nn.NewWDL(nn.WDLConfig{Fields: fields, Dim: dim, Seed: seed}), nil
	case "dcn":
		return nn.NewDCN(nn.DCNConfig{Fields: fields, Dim: dim, Seed: seed}), nil
	case "deepfm":
		return nn.NewDeepFM(nn.DeepFMConfig{Fields: fields, Dim: dim, Seed: seed}), nil
	}
	return nil, fmt.Errorf("systems: unknown model %q (want wdl, dcn, or deepfm)", name)
}

// BuildAssignment produces the partitioning each system trains with.
func BuildAssignment(sys System, g *bigraph.Bigraph, opt Options) (*partition.Assignment, error) {
	assign, _, err := buildAssignment(sys, g, opt)
	return assign, err
}

// buildAssignment additionally returns the partitioner's per-round quality
// trace (nil for the random-partition systems), which Build threads into the
// engine so a run report carries the full partition→traffic→time chain.
func buildAssignment(sys System, g *bigraph.Bigraph, opt Options) (*partition.Assignment, []partition.RoundStat, error) {
	n := opt.Topo.NumWorkers()
	switch sys {
	case TFPS, Parallax, HugeCTR, HETMP:
		return partition.Random(g, n, opt.Seed), nil, nil
	case HETGMP:
		cfg := partition.DefaultHybridConfig(n)
		cfg.Seed = opt.Seed
		// Sample balance directly gates iteration time (the slowest worker
		// is the barrier), so run the engine's partitions tighter than the
		// partitioner's default.
		cfg.BalanceSlack = 0.05
		if opt.PartitionRounds > 0 {
			cfg.Rounds = opt.PartitionRounds
		} else {
			cfg.Rounds = 3
		}
		if opt.ReplicaFraction > 0 {
			cfg.ReplicaFraction = opt.ReplicaFraction
		}
		if !opt.UniformWeights {
			cfg.Weights = opt.Topo.WeightMatrix(cluster.WeightHierarchical)
		}
		cfg.Obs = opt.Metrics
		res, err := partition.Hybrid(g, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res.Assignment, res.Rounds, nil
	}
	return nil, nil, fmt.Errorf("systems: unknown system %q", sys)
}

// Build assembles a ready-to-run trainer for the given system.
func Build(sys System, opt Options) (*engine.Trainer, error) {
	if opt.Train == nil || opt.Topo == nil {
		return nil, fmt.Errorf("systems: Train and Topo are required")
	}
	if opt.Dim <= 0 {
		opt.Dim = 16
	}
	g := bigraph.FromDataset(opt.Train)
	assign, rounds, err := buildAssignment(sys, g, opt)
	if err != nil {
		return nil, err
	}
	model, err := NewModel(opt.ModelName, opt.Train.NumFields, opt.Dim, opt.Seed)
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{
		Train:            opt.Train,
		Test:             opt.Test,
		Model:            model,
		Dim:              opt.Dim,
		Topo:             opt.Topo,
		Assign:           assign,
		BatchPerWorker:   opt.BatchPerWorker,
		Epochs:           opt.Epochs,
		TargetAUC:        opt.TargetAUC,
		EvalEvery:        opt.EvalEvery,
		EvalSamples:      opt.EvalSamples,
		CheckInvariants:  opt.CheckInvariants,
		Metrics:          opt.Metrics,
		Tracer:           opt.Tracer,
		Report:           opt.Report,
		PartitionHistory: rounds,
		Graph:            g,
		Dist:             opt.Dist,
		Tiers:            opt.Tiers,
		Seed:             opt.Seed,
	}
	var proto consistency.Config
	switch sys {
	case TFPS:
		cfg.PS = &engine.PSConfig{Hosts: opt.Topo.Nodes, HybridDense: false}
		proto, err = consistency.Resolve(consistency.BSP, 0)
	case Parallax:
		cfg.PS = &engine.PSConfig{Hosts: opt.Topo.Nodes, HybridDense: true}
		proto, err = consistency.Resolve(consistency.BSP, 0)
	case HugeCTR, HETMP:
		// Strict synchronisation, no replicas to manage. Both systems
		// overlap data loading with compute but synchronise embeddings
		// every iteration.
		proto, err = consistency.Resolve(consistency.BSP, 0)
		cfg.Overlap = 0.3
	case HETGMP:
		proto, err = consistency.Resolve(consistency.GraphBounded, opt.Staleness)
		cfg.Overlap = 0.6
	}
	if err != nil {
		return nil, err
	}
	cfg.Staleness = proto.Staleness
	cfg.InterCheck = proto.InterCheck
	cfg.Normalize = proto.Normalize
	return engine.NewTrainer(cfg)
}

// Describe returns a one-line architecture summary used in reports.
func Describe(sys System) string {
	switch sys {
	case TFPS:
		return "CPU parameter server, async, embeddings+dense over host link"
	case Parallax:
		return "hybrid: sparse via CPU PS, dense via AllReduce"
	case HugeCTR:
		return "GPU model parallelism, hash partition, BSP"
	case HETMP:
		return "HET-GMP backbone, random partition, no replication, BSP"
	case HETGMP:
		return "hybrid graph partition + replicas + graph-based bounded asynchrony"
	}
	return string(sys)
}

// StalenessInf re-exports embed.StalenessInf so callers configuring
// Options.Staleness need not import internal/embed.
const StalenessInf = embed.StalenessInf
