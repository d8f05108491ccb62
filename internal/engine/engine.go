// Package engine drives distributed embedding-model training over the
// simulated cluster: it shards data by the partitioner's assignment, runs
// real WDL/DCN forward/backward passes per worker, moves embeddings through
// the bounded-staleness table, synchronises dense parameters with ring
// AllReduce, and accounts simulated time for every byte moved and FLOP
// computed.
//
// One Trainer models one "system" (TF-PS, Parallax, HugeCTR, HET-MP,
// HET-GMP); package systems provides the presets. Runs are deterministic:
// worker goroutines only share read-only state between commit points.
package engine

import (
	"fmt"
	"math"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/comm"
	"hetgmp/internal/dataset"
	"hetgmp/internal/embed"
	"hetgmp/internal/invariant"
	"hetgmp/internal/nn"
	"hetgmp/internal/obs"
	"hetgmp/internal/obs/analyze"
	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// PSConfig switches the trainer into parameter-server mode: embeddings (and
// optionally dense parameters) live on CPU hosts instead of GPU workers,
// modelling the TF-PS and Parallax baselines.
type PSConfig struct {
	// Hosts is the number of PS shard hosts; shards are placed on machines
	// 0..Hosts-1 round-robin.
	Hosts int
	// HybridDense keeps dense parameters on GPUs synchronised by AllReduce
	// (Parallax). False routes dense traffic through the PS too (TF-PS).
	HybridDense bool
}

// Config parameterises one training run.
type Config struct {
	Train *dataset.Dataset
	Test  *dataset.Dataset
	Model nn.Network
	Dim   int

	Topo   *cluster.Topology
	Assign *partition.Assignment
	// PartitionHistory is the partitioner's per-round quality trace, when
	// the assignment came from partition.Hybrid. Purely informational: it
	// is folded into Result.Report so one artifact carries the whole
	// partition-quality → traffic → time chain (§4 → §6).
	PartitionHistory []partition.RoundStat
	// Graph, when non-nil, is the bigraph the assignment was computed
	// from. Purely informational: it joins the run's capacity report so
	// the footprint accounting covers every resident structure. Hash
	// excludes it (it is derived from Train deterministically).
	Graph *bigraph.Bigraph

	// BatchPerWorker is the per-GPU mini-batch size.
	BatchPerWorker int
	Epochs         int

	// Staleness is the bound s of the graph-based consistency model.
	// embed.StalenessInf disables synchronisation (s = ∞).
	Staleness int64
	// InterCheck enables the inter-embedding synchronisation point.
	InterCheck bool
	// Normalize enables frequency normalisation of clocks.
	Normalize bool

	// Overlap ∈ [0,1] is the fraction of embedding communication hidden
	// behind computation (Section 6, "Asynchronous Execution"). 1 means
	// iteration time is max(compute, comm); 0 means compute + comm.
	Overlap float64

	// EmbedOpt updates primary embeddings (default AdaGrad 0.05); DenseOpt
	// updates the DNN weights (default AdaGrad 0.01).
	EmbedOpt optim.Sparse
	DenseOpt optim.Dense
	// LocalLR is the secondary replicas' local step size.
	LocalLR float32

	// TargetAUC stops training early once the test AUC crosses it; 0
	// disables early stopping.
	TargetAUC float64
	// EvalEvery evaluates AUC every so many global iterations (0: once per
	// epoch).
	EvalEvery int
	// EvalSamples caps the test samples scored per evaluation (0: all).
	EvalSamples int

	// PS enables parameter-server mode (see PSConfig).
	PS *PSConfig

	// Dist attaches the trainer to a multi-rank transport mesh: this
	// process computes only worker Dist.Transport.Rank() and exchanges
	// iteration effects with its peers (see dist.go). The simulated result
	// is bit-identical to a single-process run of the same Config, which
	// is why Hash excludes it. Incompatible with PS mode.
	Dist *DistConfig

	// TrackConvergence records the Theorem-1 quantities: the global model
	// movement ‖x(t+1) − x(t)‖ per iteration and the maximum replica
	// deviation ‖x(t) − x_i(t)‖ at every evaluation point (Section 5.4).
	TrackConvergence bool

	// CheckInvariants enables the runtime invariant checker on the hot
	// paths of the table, fabric and engine (package invariant): clock
	// monotonicity, the Section 5.3 staleness bounds, byte-accounting
	// cross-checks and shard coverage. Checks are always on under
	// `go test` regardless of this flag; a violation panics with a
	// structured report.
	CheckInvariants bool

	// Metrics, when non-nil, receives the run's metrics: iteration and
	// per-phase time histograms from the engine, staleness-gap histograms
	// and protocol counters from the table, byte/message counters from the
	// fabric. The final snapshot is exported as Result.Metrics. Nil disables
	// all metrics; a metrics-off run is bit-identical to a metrics-on run.
	Metrics *obs.Registry
	// Tracer, when non-nil, records per-worker phase spans on the simulated
	// cluster clock, exportable as Chrome trace_event JSON.
	Tracer *obs.Tracer

	// Tiers selects the embedding table's storage layout (hot cache + warm
	// arena + cold spill). It never changes the simulated result — every
	// tier holds the same raw float32 rows and the commit discipline fixes
	// the apply order — so Hash excludes it.
	Tiers embed.TierConfig

	// Report runs the critical-path analyzer over the finished run's
	// telemetry and attaches the result as Result.Report. It requires both
	// Metrics and Tracer (the analyzer consumes spans and counters); the
	// analysis is strictly post-hoc, so a report-on run is bit-identical to
	// a report-off run.
	Report bool

	Seed uint64
}

func (c *Config) defaults() error {
	if c.Train == nil || c.Model == nil || c.Topo == nil || c.Assign == nil {
		return fmt.Errorf("engine: Train, Model, Topo and Assign are required")
	}
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	// Batches and evaluation read the datasets' feature blocks.
	if err := c.Train.CheckBlock(); err != nil {
		return fmt.Errorf("engine: Train: %w", err)
	}
	if c.Test != nil {
		if err := c.Test.CheckBlock(); err != nil {
			return fmt.Errorf("engine: Test: %w", err)
		}
	}
	if c.Topo.NumWorkers() != c.Assign.N {
		return fmt.Errorf("engine: topology has %d workers but assignment has %d partitions",
			c.Topo.NumWorkers(), c.Assign.N)
	}
	if c.Dim <= 0 {
		c.Dim = 16
	}
	if c.BatchPerWorker <= 0 {
		c.BatchPerWorker = 256
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.Overlap < 0 || c.Overlap > 1 {
		return fmt.Errorf("engine: Overlap %g out of [0,1]", c.Overlap)
	}
	if c.EmbedOpt == nil {
		c.EmbedOpt = optim.NewAdaGrad(0.05, c.Train.NumFeatures, c.Dim)
	}
	if c.DenseOpt == nil {
		c.DenseOpt = optim.NewDenseAdaGrad(0.01, c.Model.ParamCount())
	}
	if c.LocalLR == 0 {
		c.LocalLR = 0.05
	}
	if c.PS != nil && c.PS.Hosts <= 0 {
		c.PS.Hosts = 1
	}
	if c.Report && (c.Metrics == nil || c.Tracer == nil) {
		return fmt.Errorf("engine: Report requires both Metrics and Tracer")
	}
	if c.Dist != nil {
		if c.Dist.Transport == nil {
			return fmt.Errorf("engine: Dist requires a connected Transport")
		}
		if c.PS != nil {
			return fmt.Errorf("engine: Dist is incompatible with PS mode")
		}
		if got, want := c.Dist.Transport.Size(), c.Topo.NumWorkers(); got != want {
			return fmt.Errorf("engine: transport mesh has %d ranks but topology has %d workers", got, want)
		}
	}
	return nil
}

// Hash fingerprints the run-defining parameters: two runs share a hash iff
// their reports measure the same configuration, which is what lets
// `hetgmp-obs diff` refuse to compare incomparable runs. Environment
// (GOMAXPROCS, go version) is deliberately excluded — the simulation is
// deterministic at any parallelism.
func (c *Config) Hash() string {
	ps, hosts, hybrid := 0, 0, false
	if c.PS != nil {
		ps, hosts, hybrid = 1, c.PS.Hosts, c.PS.HybridDense
	}
	return analyze.HashConfig(
		c.Train.Name, len(c.Train.Samples), c.Train.NumFeatures, c.Train.NumFields,
		c.Model.Name(), c.Dim, c.Topo.Name, c.Topo.NumWorkers(),
		c.BatchPerWorker, c.Epochs, c.Staleness, c.InterCheck, c.Normalize,
		c.Overlap, c.TargetAUC, c.EvalEvery, c.EvalSamples,
		ps, hosts, hybrid, c.Seed,
	)
}

// EvalPoint is one point of a Figure 7 convergence curve.
type EvalPoint struct {
	Iteration int
	Epoch     int
	SimTime   float64 // seconds of simulated cluster time
	AUC       float64
	Loss      float64 // running training loss
}

// Result summarises a run.
type Result struct {
	Workload string
	System   string

	History  []EvalPoint
	FinalAUC float64
	BestAUC  float64
	// ConvergedAt is the simulated time at which TargetAUC was first
	// reached; negative if never.
	ConvergedAt float64

	Iterations       int
	SamplesProcessed int64
	TotalSimTime     float64
	Throughput       float64 // samples per simulated second

	// Time decomposition (summed over the critical path).
	ComputeSeconds float64
	EmbCommSeconds float64
	DenseSeconds   float64

	Breakdown     comm.Breakdown
	TrafficMatrix [][]int64

	// Protocol counters aggregated over the run.
	LocalPrimary, LocalFresh, SyncedIntra, SyncedInter, RemoteReads int64

	// Theorem-1 traces (populated when Config.TrackConvergence is set):
	// StepNorms[t] is ‖x(t+1) − x(t)‖ over the embedding table, and
	// Deviations[k] is the largest secondary-vs-primary distance at the
	// k-th evaluation point.
	StepNorms  []float64
	Deviations []float64

	// Invariants snapshots the runtime invariant counters at the end of
	// the run (zero when checking was disabled). Experiments assert
	// Invariants.Violations == 0 to certify a run obeyed the Section 5.3
	// and Section 6 contracts it claims to measure.
	Invariants invariant.Counts

	// Metrics is the final registry snapshot (empty when Config.Metrics was
	// nil). Notable entries: table.staleness.admitted_gap (its Max must
	// respect the configured bound s), engine.phase.*.sim_nanos, and the
	// fabric.* traffic series.
	Metrics obs.Snapshot

	// Report is the critical-path analyzer's interpretation of the run
	// (nil unless Config.Report was set): per-worker/per-epoch phase
	// decomposition, overlap efficiency, stragglers, traffic heatmap and
	// sim-time quantiles, stamped with the run's config hash.
	Report *analyze.RunReport

	// TierStats is the tiered store's access ledger (nil for flat storage):
	// resident rows and bytes per tier and read/commit hits by tier.
	TierStats *embed.TierStats
}

// MovementSum returns Σ_t ‖x(t+1) − x(t)‖, the series Theorem 1 proves
// finite.
func (r *Result) MovementSum() float64 {
	var s float64
	for _, v := range r.StepNorms {
		s += v
	}
	return s
}

// TailRatio compares the mean step norm of the last quarter of training to
// the first quarter; Theorem 1's summability requires the movement to decay
// (ratio well below 1).
func (r *Result) TailRatio() float64 {
	n := len(r.StepNorms)
	if n < 8 {
		return 1
	}
	q := n / 4
	var head, tail float64
	for _, v := range r.StepNorms[:q] {
		head += v
	}
	for _, v := range r.StepNorms[n-q:] {
		tail += v
	}
	if head == 0 {
		return 1
	}
	return tail / head
}

// CommFraction returns communication time / total time on the critical
// path — the quantity of the paper's Figure 1.
func (r *Result) CommFraction() float64 {
	if r.TotalSimTime == 0 {
		return 0
	}
	return (r.EmbCommSeconds + r.DenseSeconds) / r.TotalSimTime
}

// Trainer executes runs for one configuration.
type Trainer struct {
	cfg    Config
	fabric *comm.Fabric
	table  *embed.Table
	check  *invariant.Checker
	met    *engineMetrics
	trace  *obs.Tracer
	n      int
	// dist is non-nil in multi-rank execution (see dist.go).
	dist *distState

	// model is cfg.Model behind the batch-parallel wrapper: every forward,
	// backward, Grads and dense apply in the engine goes through it, on the
	// fixed row-range grid (nn.DefaultRangeRows), so the numbers do not
	// depend on how many goroutines walk the grid. Run installs the shared
	// compute pool for its duration.
	model *nn.Parallel

	workers []*worker
	// denseGrad[w] is worker w's flattened dense gradient for the current
	// iteration: its model state's first shard writes its weight gradients
	// there in place, and Grads adds the other shards' into it. denseAvg is
	// the AllReduce result.
	denseGrad [][]float32
	denseAvg  []float32

	// psHome[x] is the PS host machine of feature x (PS mode only).
	psHome []int8
	// nicOut/nicIn are nicQueueDelay's per-node byte totals, zeroed on every
	// use (multi-node topologies only).
	nicOut, nicIn []int64

	// Evaluation buffers (lazily built).
	evalState  nn.State
	evalInput  *tensor.Matrix
	evalScores []float32
	evalLabels []float32
}

// NewTrainer validates cfg and builds all run state.
func NewTrainer(cfg Config) (*Trainer, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := cfg.Topo.NumWorkers()
	check := invariant.Auto(cfg.CheckInvariants)
	// A graph over Train's own block has already counted the frequencies.
	var freq []int32
	if cfg.Graph != nil && cfg.Graph.Views(cfg.Train) {
		freq = cfg.Graph.Degree
	} else {
		freq = cfg.Train.FeatureFrequencies()
	}
	table, err := embed.NewTable(embed.Config{
		NumFeatures: cfg.Train.NumFeatures,
		Dim:         cfg.Dim,
		Assign:      cfg.Assign,
		Freq:        freq,
		Optimizer:   cfg.EmbedOpt,
		LocalLR:     cfg.LocalLR,
		Seed:        cfg.Seed,
		Check:       check,
		Obs:         cfg.Metrics,
		Tiers:       cfg.Tiers,
	})
	if err != nil {
		return nil, err
	}
	fabric := comm.NewFabric(cfg.Topo)
	fabric.SetChecker(check)
	fabric.SetObs(cfg.Metrics)
	t := &Trainer{
		cfg:      cfg,
		fabric:   fabric,
		table:    table,
		check:    check,
		n:        n,
		model:    nn.NewParallel(cfg.Model),
		denseAvg: make([]float32, cfg.Model.ParamCount()),
	}
	t.verifyShardCoverage()
	if cfg.Dist != nil {
		tr := cfg.Dist.Transport
		if r := tr.Rank(); r < 0 || r >= n {
			return nil, fmt.Errorf("engine: transport rank %d outside [0,%d)", r, n)
		}
		tr.SetRecvTimeout(cfg.Dist.RecvTimeout)
		t.dist = &distState{coord: comm.NewCoordinator(tr), rank: tr.Rank(), sums: make([]distSummary, n)}
	}
	if cfg.Topo.Nodes > 1 {
		t.nicOut = make([]int64, cfg.Topo.Nodes)
		t.nicIn = make([]int64, cfg.Topo.Nodes)
	}
	if cfg.PS != nil {
		t.psHome = make([]int8, cfg.Train.NumFeatures)
		for x := range t.psHome {
			t.psHome[x] = int8(x % cfg.PS.Hosts)
		}
	}
	// Shard samples by assignment.
	shards := make([][]int32, n)
	for s, p := range cfg.Assign.SampleOf {
		shards[p] = append(shards[p], int32(s))
	}
	rng := xrand.New(cfg.Seed ^ 0xe4917e4917e4917e)
	for w := 0; w < n; w++ {
		t.denseGrad = append(t.denseGrad, make([]float32, cfg.Model.ParamCount()))
		t.workers = append(t.workers, newWorker(w, t, shards[w], rng.Split()))
	}
	t.initObs()
	return t, nil
}

// verifyShardCoverage enforces the data-sharding invariant at construction:
// the assignment places every training sample on exactly one valid worker,
// so each epoch trains the dataset exactly once with no overlap.
func (t *Trainer) verifyShardCoverage() {
	ck := t.check
	if ck == nil {
		return
	}
	cfg := &t.cfg
	if len(cfg.Assign.SampleOf) != len(cfg.Train.Samples) {
		ck.Fail(&invariant.Violation{
			Rule: invariant.ShardCoverage, Component: "engine.Trainer",
			Worker: -1, Feature: -1,
			Primary: int64(len(cfg.Assign.SampleOf)), Replica: int64(len(cfg.Train.Samples)),
			Detail: "assignment covers a different number of samples than the dataset holds",
		})
	}
	for s, p := range cfg.Assign.SampleOf {
		if p >= 0 && p < t.n {
			continue
		}
		ck.Fail(&invariant.Violation{
			Rule: invariant.ShardCoverage, Component: "engine.Trainer",
			Worker: p, Feature: -1,
			Primary: int64(s), Bound: int64(t.n),
			Detail: fmt.Sprintf("sample %d assigned to worker %d outside [0,%d)", s, p, t.n),
		})
	}
	ck.Passed(invariant.ShardCoverage)
}

// checkSimTime enforces monotonicity of the simulated cluster clock: one
// barrier or flush may only move time forward, and never to NaN/Inf.
func (t *Trainer) checkSimTime(prev, cur float64) {
	ck := t.check
	if ck == nil {
		return
	}
	ck.Passed(invariant.SimTime)
	if cur >= prev && !math.IsNaN(cur) && !math.IsInf(cur, 0) {
		return
	}
	ck.Fail(&invariant.Violation{
		Rule: invariant.SimTime, Component: "engine.Trainer",
		Worker: -1, Feature: -1,
		Detail: fmt.Sprintf("simulated clock moved %v → %v; it must be finite and non-decreasing", prev, cur),
	})
}

// checkEpochCoverage enforces the per-epoch training discipline after a
// fully-run epoch: every worker exhausted its shard and the epoch touched
// the dataset exactly once.
func (t *Trainer) checkEpochCoverage(epoch, processed int) {
	ck := t.check
	if ck == nil {
		return
	}
	ck.Passed(invariant.ShardCoverage)
	if processed != len(t.cfg.Train.Samples) {
		ck.Fail(&invariant.Violation{
			Rule: invariant.ShardCoverage, Component: "engine.Trainer",
			Worker: -1, Feature: -1,
			Primary: int64(processed), Replica: int64(len(t.cfg.Train.Samples)), Bound: int64(epoch),
			Detail: fmt.Sprintf("epoch %d trained %d samples, dataset holds %d — a sample was skipped or trained twice", epoch, processed, len(t.cfg.Train.Samples)),
		})
	}
	for _, w := range t.workers {
		if w.cursor != len(w.order) {
			ck.Fail(&invariant.Violation{
				Rule: invariant.ShardCoverage, Component: "engine.Trainer",
				Worker: w.id, Feature: -1,
				Primary: int64(w.cursor), Replica: int64(len(w.order)), Bound: int64(epoch),
				Detail: "worker ended the epoch with unprocessed shard samples",
			})
		}
	}
}

// Run trains to completion (epochs or early stop) and returns the result.
func (t *Trainer) Run() (*Result, error) {
	cfg := &t.cfg
	res := &Result{
		Workload:    cfg.Model.Name() + "-" + cfg.Train.Name,
		ConvergedAt: -1,
	}
	itersPerEpoch := 0
	for _, w := range t.workers {
		if n := (len(w.order) + cfg.BatchPerWorker - 1) / cfg.BatchPerWorker; n > itersPerEpoch {
			itersPerEpoch = n
		}
	}
	if itersPerEpoch == 0 {
		return nil, fmt.Errorf("engine: no training samples")
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = itersPerEpoch
	}

	var simTime float64 // synchronised cluster clock (barrier per iteration)
	psClock := make([]float64, t.n)
	denseBytes := int64(cfg.Model.ParamCount()) * 4
	lossSum, lossCnt := 0.0, 0

	if cfg.TrackConvergence {
		t.table.TrackStepNorms(true)
	}
	// The per-iteration fan-out: a pool of long-lived per-worker goroutines
	// signalled over channels, so the hot loop's only per-iteration cost is
	// channel sends. A distributed rank runs exactly one worker per
	// iteration (distIterate) and needs no local fan-out.
	var pool *workerPool
	if t.dist == nil {
		pool = newWorkerPool(t.workers)
		defer pool.stop()
	}
	// The batch-parallel compute pool behind the model wrapper.
	nnPool := nn.NewPool(maxParallelism())
	t.model.SetPool(nnPool)
	defer func() {
		t.model.SetPool(nil)
		nnPool.Close()
	}()
	global := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, w := range t.workers {
			w.startEpoch()
		}
		epochSamples := 0
		for it := 0; it < itersPerEpoch; it++ {
			if t.dist != nil {
				if err := t.distIterate(); err != nil {
					return nil, err
				}
			} else {
				for _, w := range t.workers {
					if !w.hasWork() {
						w.resetIdle()
						continue
					}
					pool.dispatch(w.id)
				}
				pool.wait()
			}

			// Barrier: the slowest worker gates the iteration — or the
			// busiest NIC, since a machine's GPUs share one network port
			// and their cross-node traffic serialises through it.
			var maxDt float64
			for _, w := range t.workers {
				if w.iterTime > maxDt {
					maxDt = w.iterTime
				}
				lossSum += w.iterLoss
				if w.iterSamples > 0 {
					lossCnt++
				}
				res.SamplesProcessed += int64(w.iterSamples)
				epochSamples += w.iterSamples
			}
			if nic := t.nicQueueDelay(); nic > maxDt {
				maxDt = nic
			}

			prevSim := simTime

			// Dense synchronisation. In PS mode the shared host link is a
			// queueing point: the host serves all workers' bytes through
			// one NIC, so per-iteration service time is the aggregate
			// demand divided by that link's bandwidth — the centralised
			// bottleneck that makes the paper's CPU-PS baselines lose.
			hostBusy := t.hostQueueDelay(0)
			if cfg.PS != nil && !cfg.PS.HybridDense {
				// TF-PS: dense pull + push through the host link, no
				// barrier between workers. Each worker's clock advances by
				// its own work or by the host's queueing delay, whichever
				// gates it.
				denseBusy := t.hostQueueDelay(2 * denseBytes)
				var maxDenseDt float64
				for wi, w := range t.workers {
					if w.iterSamples == 0 {
						continue
					}
					host := wi % cfg.PS.Hosts
					denseDt := t.fabric.HostTransfer(wi, host, denseBytes, comm.CatDense)
					denseDt += t.fabric.HostTransfer(wi, host, denseBytes, comm.CatDense)
					denseDt += psReadOverhead + psUpdateOverhead
					if denseDt > maxDenseDt {
						maxDenseDt = denseDt
					}
					t.applyWorkerDense(wi)
					dt := w.iterTime + denseDt
					if denseBusy > dt {
						dt = denseBusy
					}
					if t.obsOn() {
						// No barrier: each worker's spans start at its own
						// clock; the dense exchange and any host-queueing
						// stall follow its busy interval.
						end := t.emitWorkerPhases(w, psClock[wi], epoch, global)
						t.obsSpan(wi, obs.PhaseAllReduce, end, denseDt, epoch, global)
						t.obsSpan(wi, t.waitPhase(), end+denseDt, dt-(w.iterTime+denseDt), epoch, global)
					}
					psClock[wi] += dt
				}
				// The shared simulated clock follows the slowest worker.
				simTime = maxFloat(psClock)
				res.DenseSeconds += maxDenseDt
				t.observeIteration(simTime - prevSim)
			} else {
				denseDt := t.fabric.AllReduceTime(denseBytes)
				t.reduceDense()
				if hostBusy > maxDt {
					maxDt = hostBusy // Parallax: sparse path queues at the host
				}
				simTime += maxDt + denseDt
				res.DenseSeconds += denseDt
				t.emitAllReduceObs(prevSim, maxDt, denseDt, epoch, global)
			}
			t.checkSimTime(prevSim, simTime)
			t.table.Commit()
			if t.dist != nil {
				t.dist.release()
			}
			if cfg.TrackConvergence {
				res.StepNorms = append(res.StepNorms, math.Sqrt(t.table.TakeStepNormSq()))
			}

			// Critical-path decomposition: attribute the slowest worker's
			// split.
			slowest := t.slowestWorker()
			if slowest != nil {
				res.ComputeSeconds += slowest.iterCompute
				res.EmbCommSeconds += slowest.iterTime - slowest.iterCompute
			}

			global++
			res.Iterations = global
			if global%evalEvery == 0 || (epoch == cfg.Epochs-1 && it == itersPerEpoch-1) {
				auc := t.Evaluate()
				avgLoss := 0.0
				if lossCnt > 0 {
					avgLoss = lossSum / float64(lossCnt)
				}
				lossSum, lossCnt = 0, 0
				res.History = append(res.History, EvalPoint{
					Iteration: global, Epoch: epoch, SimTime: simTime, AUC: auc, Loss: avgLoss,
				})
				if cfg.TrackConvergence {
					res.Deviations = append(res.Deviations, t.table.MaxReplicaDeviation())
				}
				if auc > res.BestAUC {
					res.BestAUC = auc
				}
				res.FinalAUC = auc
				if cfg.TargetAUC > 0 && auc >= cfg.TargetAUC && res.ConvergedAt < 0 {
					res.ConvergedAt = simTime
				}
				if cfg.TargetAUC > 0 && res.ConvergedAt >= 0 {
					// Converged: finish the epoch accounting and stop.
					res.TotalSimTime = simTime
					t.finalize(res)
					return res, nil
				}
			}
		}
		t.checkEpochCoverage(epoch, epochSamples)
		// Epoch boundary: reconcile replicas and charge the flush traffic.
		// s = ∞ means *no* synchronisation: replicas drift for the whole
		// run and their pending gradients reach primaries only at the very
		// end — the quality cost the paper's Table 2 shows at s = ∞.
		if cfg.Staleness == embed.StalenessInf && epoch < cfg.Epochs-1 {
			continue
		}
		var flush [][]embed.OwnerTraffic
		if t.dist != nil {
			var err error
			if flush, err = t.distFlush(); err != nil {
				return nil, err
			}
		} else {
			flush = t.table.FlushAll()
		}
		var flushMax float64
		vecBytes := t.table.BytesPerVector()
		for wi, per := range flush {
			var dt float64
			for owner, tr := range per {
				if owner == wi {
					continue
				}
				var out [3]int64
				out[comm.CatMeta] = int64(tr.MetaKeys) * embed.BytesPerKey
				out[comm.CatEmbedding] = int64(tr.FlushVecs) * vecBytes
				dt += t.fabric.TransferBatch(wi, owner, out)
				var in [3]int64
				in[comm.CatEmbedding] = int64(tr.SyncVecs) * vecBytes
				dt += t.fabric.TransferBatch(owner, wi, in)
			}
			if dt > flushMax {
				flushMax = dt
			}
			if t.obsOn() {
				t.obsSpan(wi, obs.PhaseFlush, simTime, dt, epoch, global)
			}
		}
		prevSim := simTime
		simTime += flushMax
		t.checkSimTime(prevSim, simTime)
		res.EmbCommSeconds += flushMax
	}
	res.TotalSimTime = simTime
	t.finalize(res)
	return res, nil
}

func (t *Trainer) finalize(res *Result) {
	// In distributed mode, hold every rank at the finish line until all
	// have arrived, so no rank tears its transport down while a peer is
	// still mid-collective.
	t.distBarrier()
	if res.TotalSimTime > 0 {
		res.Throughput = float64(res.SamplesProcessed) / res.TotalSimTime
	}
	// One consistent fabric snapshot backs both exported views.
	snap := t.fabric.Snapshot()
	res.Breakdown = snap.Breakdown()
	res.TrafficMatrix = snap.Matrix()
	for _, w := range t.workers {
		res.LocalPrimary += w.totLocalPrimary
		res.LocalFresh += w.totLocalFresh
		res.SyncedIntra += w.totSyncedIntra
		res.SyncedInter += w.totSyncedInter
		res.RemoteReads += w.totRemoteReads
	}
	if t.check != nil {
		// End-of-run sweep: the byte ledgers must still be two views of the
		// same traffic, and the table must be in a clean committed state.
		_ = t.fabric.CheckTotals()
		t.table.VerifyCommitted()
		res.Invariants = t.check.Counts()
	}
	if t.cfg.Metrics != nil {
		res.Metrics = t.cfg.Metrics.Snapshot()
	}
	if ts := t.table.TierStats(); ts != nil {
		snapshot := *ts // detach from the live stripes
		res.TierStats = &snapshot
	}
	if t.cfg.Report {
		// Post-hoc interpretation of the telemetry gathered above; a
		// failure (e.g. a run too degenerate to produce spans) leaves
		// Report nil rather than failing the training result.
		input := analyze.Input{
			Spans:           t.trace.Spans(),
			Metrics:         res.Metrics,
			Fabric:          &snap,
			Rounds:          t.cfg.PartitionHistory,
			TotalSimSeconds: res.TotalSimTime,
			Iterations:      res.Iterations,
			PS:              t.cfg.PS != nil,
			Meta:            analyze.CollectMeta(t.cfg.Hash()),
		}
		if t.dist != nil {
			// The ledger is complete here: tcpnet accounts a frame before
			// delivery and distBarrier has consumed the last collective.
			tr := t.cfg.Dist.Transport
			input.Transport = analyze.TransportFromLedger(t.dist.rank, t.n, tr.Stats(), tr.LinkStats())
			input.Meta.Rank = t.dist.rank
			input.Meta.WorldSize = t.n
		}
		// Measured footprint + hot-set telemetry; the run is single-
		// threaded here, so walking the table's append-grown buffers is
		// safe.
		input.Capacity = t.capacityStat()
		rep, err := analyze.Analyze(input)
		if err == nil {
			res.Report = rep
		}
	}
}

// InvariantCounts snapshots the runtime invariant counters (zero counts
// when checking is disabled).
func (t *Trainer) InvariantCounts() invariant.Counts { return t.check.Counts() }

// Close releases resources held by the embedding table — in particular any
// cold-tier spill files and their mappings. Safe to call more than once;
// flat-storage runs close trivially.
func (t *Trainer) Close() error { return t.table.Close() }

// nicQueueDelay returns the time the busiest machine needs to push this
// iteration's cross-node traffic through its (full-duplex) NIC. Without
// this term every GPU would enjoy a private network port and random
// partitioning would never hit the multi-node wall of Figure 10.
func (t *Trainer) nicQueueDelay() float64 {
	topo := t.cfg.Topo
	if topo.Nodes <= 1 {
		return 0
	}
	nodeOut, nodeIn := t.nicOut, t.nicIn
	clear(nodeOut)
	clear(nodeIn)
	for wi, w := range t.workers {
		n := topo.NodeOf(wi)
		nodeOut[n] += w.iterNICOut
		nodeIn[n] += w.iterNICIn
	}
	bw := topo.Network.Bandwidth()
	var worst float64
	for n := 0; n < topo.Nodes; n++ {
		dir := nodeOut[n]
		if nodeIn[n] > dir {
			dir = nodeIn[n]
		}
		if busy := float64(dir) / bw; busy > worst {
			worst = busy
		}
	}
	return worst
}

// hostQueueDelay returns the per-iteration service time of the busiest PS
// host: the sum of every worker's traffic with that host (plus extraPerWorker
// bytes each, for the TF-PS dense path) divided by the host link bandwidth.
// Zero when the trainer is not in PS mode.
func (t *Trainer) hostQueueDelay(extraPerWorker int64) float64 {
	cfg := &t.cfg
	if cfg.PS == nil {
		return 0
	}
	var worst float64
	for h := 0; h < cfg.PS.Hosts; h++ {
		var total int64
		bw := cluster.PCIe.Bandwidth()
		for wi, w := range t.workers {
			if w.iterSamples == 0 {
				continue
			}
			if len(w.iterHostBytes) > h {
				total += w.iterHostBytes[h]
			}
			if wi%cfg.PS.Hosts == h {
				total += extraPerWorker
			}
			if b := cfg.Topo.HostLink(wi, h).Bandwidth(); b < bw {
				bw = b
			}
		}
		if busy := float64(total) / bw; busy > worst {
			worst = busy
		}
	}
	return worst
}

func (t *Trainer) slowestWorker() *worker {
	var s *worker
	for _, w := range t.workers {
		if s == nil || w.iterTime > s.iterTime {
			s = w
		}
	}
	return s
}

// reduceDense averages all workers' dense gradients (the AllReduce payload)
// and applies the result once — exact data-parallel semantics. The reduce
// is a chunked sweep over the flattened vector: every element's sum keeps
// the worker-ascending order of the serial loop, so any chunking is
// bit-identical.
func (t *Trainer) reduceDense() {
	n := 0
	for _, w := range t.workers {
		if w.iterSamples > 0 {
			n++
		}
	}
	if n == 0 {
		return
	}
	inv := float32(1) / float32(n)
	sweep := func(a, b int) {
		avg := t.denseAvg[a:b]
		for i := range avg {
			avg[i] = 0
		}
		for wi, w := range t.workers {
			if w.iterSamples == 0 {
				continue
			}
			g := t.denseGrad[wi][a:b]
			for i, v := range g {
				avg[i] += v
			}
		}
		for i := range avg {
			avg[i] *= inv
		}
	}
	if par := maxParallelism(); par > 1 && len(t.denseAvg) >= denseChunkMin {
		runChunks(len(t.denseAvg), par, sweep)
	} else {
		sweep(0, len(t.denseAvg))
	}
	t.model.ApplyDense(t.parallelStep, t.denseAvg)
}

// applyWorkerDense applies one worker's dense gradient directly (PS/ASP
// path: no averaging barrier).
func (t *Trainer) applyWorkerDense(wi int) {
	t.model.ApplyDense(t.parallelStep, t.denseGrad[wi])
}

// parallelStep is the dense optimizer step handed to Model.ApplyDense:
// when the rule supports chunked application (optim.ChunkedDense), the
// flattened vector is swept by several goroutines over disjoint chunks.
// The updates are elementwise with the accumulator addressed at the chunk
// offset, so any chunking is bit-identical to one whole-vector Step.
func (t *Trainer) parallelStep(params, grad []float32) {
	par := maxParallelism()
	cd, ok := t.cfg.DenseOpt.(optim.ChunkedDense)
	if !ok || par <= 1 || len(params) < denseChunkMin {
		t.cfg.DenseOpt.Step(params, grad)
		return
	}
	runChunks(len(params), par, func(a, b int) {
		cd.StepAt(a, params[a:b], grad[a:b])
	})
}

func maxFloat(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
