package engine

import (
	"hetgmp/internal/comm"
	"hetgmp/internal/embed"
	"hetgmp/internal/idmap"
	"hetgmp/internal/nn"
	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// worker is one simulated GPU's training state. During the concurrent phase
// of an iteration a worker touches only its own fields, its embedding-table
// shard, and read-only shared state.
type worker struct {
	id int
	t  *Trainer
	// order is the worker's shard of training sample ids, reshuffled every
	// epoch; the cursor is the next batch's start.
	order  []int32
	cursor int
	rng    *xrand.RNG

	state nn.State

	// dedup maps a feature id to its slot in the batch's uniq list. Batch
	// dedup runs per iteration over every (sample, field) edge, so it is a
	// hot path: an open-addressed table sized by the batch (at most
	// batch×fields ids), not by the feature space, so it stays in L2 and
	// its per-batch Reset is one memclr.
	dedup *idmap.Map

	// prep holds the current iteration's deduplicated batch (see batch.go).
	prep batchPrep

	// embBuf holds the unique embeddings Read gathers. Nothing reads them
	// once input is built, so the scatter-add then reuses it for the
	// per-unique embedding gradients that Update applies.
	embBuf *tensor.Matrix
	input  *tensor.Matrix // batch × (fields·dim)
	dLogit []float32
	// dInput is the input gradient the scatter-add reads. The model state
	// holds views of it: each 64-row shard's backward writes its own rows.
	dInput *tensor.Matrix

	// Per-iteration outputs.
	iterTime    float64
	iterCompute float64
	// iterReadComm and iterUpdateComm split the iteration's communication
	// time into the gather (embed fetch) and scatter (gradient push) sides,
	// so the tracer can lay the phases out separately.
	iterReadComm   float64
	iterUpdateComm float64
	iterLoss       float64
	iterSamples    int
	// iterHostBytes[h] counts this iteration's parameter-server traffic
	// with host h (PS mode only); the engine turns the per-host totals
	// into queueing delay at the shared host link.
	iterHostBytes []int64
	// hostVecs is psRead/psUpdate's scratch: the vectors one call moves to
	// or from each PS host, zeroed on every use (PS mode only).
	hostVecs []int
	// iterNICOut/iterNICIn count this iteration's cross-node bytes leaving
	// and entering this worker. All GPUs of a machine share one NIC, so
	// the engine aggregates these per node into a queueing delay — the
	// effect that caps multi-node scaling in the paper's Figure 10.
	iterNICOut, iterNICIn int64

	// Per-iteration protocol counters. Distributed execution ships them in
	// the iteration summary and replays them onto ghost workers, so they
	// are kept per iteration and folded into the tot* aggregates by
	// accumulateStats.
	iterLocalPrimary, iterLocalFresh                int64
	iterSyncedIntra, iterSyncedInter                int64
	iterRemoteReads                                 int64
	iterLocalSecondary, iterRemotePush, iterFlushed int64

	// distReadPer/distUpdPer capture copies of the Read/Update per-owner
	// traffic for the distributed summary (the table's PerOwner slices are
	// per-shard scratch reused between calls). Populated only in
	// distributed mode.
	distReadPer, distUpdPer []embed.OwnerTraffic

	// Aggregate protocol counters.
	totLocalPrimary, totLocalFresh             int64
	totSyncedIntra, totSyncedInter             int64
	totRemoteReads                             int64
	totLocalSecondary, totRemotePush, totFlush int64
}

// accumulateStats folds the iteration's protocol counters into the run
// aggregates.
func (w *worker) accumulateStats() {
	w.totLocalPrimary += w.iterLocalPrimary
	w.totLocalFresh += w.iterLocalFresh
	w.totSyncedIntra += w.iterSyncedIntra
	w.totSyncedInter += w.iterSyncedInter
	w.totRemoteReads += w.iterRemoteReads
	w.totLocalSecondary += w.iterLocalSecondary
	w.totRemotePush += w.iterRemotePush
	w.totFlush += w.iterFlushed
}

// resetIterStats clears the per-iteration protocol counters.
func (w *worker) resetIterStats() {
	w.iterLocalPrimary, w.iterLocalFresh = 0, 0
	w.iterSyncedIntra, w.iterSyncedInter = 0, 0
	w.iterRemoteReads = 0
	w.iterLocalSecondary, w.iterRemotePush, w.iterFlushed = 0, 0, 0
}

func newWorker(id int, t *Trainer, samples []int32, rng *xrand.RNG) *worker {
	cfg := &t.cfg
	fields := cfg.Train.NumFields
	b := cfg.BatchPerWorker
	w := &worker{
		id:     id,
		t:      t,
		rng:    rng,
		dedup:  idmap.New(b * fields),
		embBuf: tensor.NewMatrix(b*fields, cfg.Dim),
		input:  tensor.NewMatrix(b, fields*cfg.Dim),
		dLogit: make([]float32, b),
		dInput: tensor.NewMatrix(b, fields*cfg.Dim),
		prep:   newBatchPrep(b, fields),
	}
	w.state = t.model.NewState(b, w.dInput, t.denseGrad[id])
	if cfg.PS != nil {
		w.iterHostBytes = make([]int64, cfg.PS.Hosts)
		w.hostVecs = make([]int, cfg.PS.Hosts)
	}
	// A copy at exactly the shard's length: samples was append-grown.
	w.order = make([]int32, len(samples))
	copy(w.order, samples)
	return w
}

// startEpoch reshuffles the worker's local shard.
func (w *worker) startEpoch() {
	w.cursor = 0
	w.rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
}

// hasWork reports whether any local samples remain this epoch.
func (w *worker) hasWork() bool { return w.cursor < len(w.order) }

// resetIdle clears every per-iteration counter of a worker that runs no
// batch this iteration. The NIC counters matter most: nicQueueDelay sums
// them after the barrier, so a count left over from the worker's last busy
// iteration would keep charging its node's NIC for traffic that already
// gated an earlier barrier.
func (w *worker) resetIdle() {
	w.iterTime = 0
	w.iterCompute = 0
	w.iterReadComm = 0
	w.iterUpdateComm = 0
	w.iterLoss = 0
	w.iterSamples = 0
	w.iterNICOut, w.iterNICIn = 0, 0
	w.resetIterStats()
	for h := range w.iterHostBytes {
		w.iterHostBytes[h] = 0
	}
}

// runIteration processes one mini-batch: prep (dedup/labels) → gather
// (Read) → forward → loss → backward → scatter (Update), charging simulated
// time for each stage.
func (w *worker) runIteration() {
	cfg := &w.t.cfg
	w.prepBatch(w.nextBatch())
	p := &w.prep
	uniq, batchIdx := p.uniq, p.batchIdx
	bs := p.bs
	w.iterSamples = bs
	w.iterNICOut, w.iterNICIn = 0, 0
	w.resetIterStats()
	for h := range w.iterHostBytes {
		w.iterHostBytes[h] = 0
	}
	fields := cfg.Train.NumFields
	dim := cfg.Dim

	// Gather embeddings under the consistency protocol.
	var readComm float64
	if cfg.PS != nil {
		readComm = w.psRead()
	} else {
		stats := w.t.table.Read(w.id, uniq, w.embBuf, embed.ReadOptions{
			Staleness:  cfg.Staleness,
			InterCheck: cfg.InterCheck,
			Normalize:  cfg.Normalize,
		})
		w.iterLocalPrimary = int64(stats.LocalPrimary)
		w.iterLocalFresh = int64(stats.LocalFresh)
		w.iterSyncedIntra = int64(stats.SyncedIntra)
		w.iterSyncedInter = int64(stats.SyncedInter)
		w.iterRemoteReads = int64(stats.RemoteReads)
		if w.t.dist != nil {
			// PerOwner aliases the shard's scratch, which the Update below
			// reuses — the summary needs a stable copy.
			w.distReadPer = append(w.distReadPer[:0], stats.PerOwner...)
		}
		readComm = w.chargeOwnerTraffic(stats.PerOwner)
	}

	// Build the dense input: per sample, concatenate its field embeddings.
	for r := 0; r < bs; r++ {
		row := w.input.Row(r)
		for f := 0; f < fields; f++ {
			src := w.embBuf.Row(int(batchIdx[r*fields+f]))
			copy(row[f*dim:(f+1)*dim], src)
		}
	}

	// Forward / loss / backward, through the batch-parallel wrapper.
	logits := w.t.model.Forward(w.state, w.input, bs)
	w.iterLoss = nn.BCEWithLogits(logits, p.labels[:bs], w.dLogit)
	dInput := w.t.model.Backward(w.state, w.dLogit[:bs])
	w.t.model.Grads(w.state, w.t.denseGrad[w.id])

	// Scatter-add embedding gradients per unique feature, into embBuf: the
	// gathered rows are already copied into input.
	gb := &tensor.Matrix{Rows: len(uniq), Cols: dim, Data: w.embBuf.Data[:len(uniq)*dim]}
	gb.Zero()
	for r := 0; r < bs; r++ {
		drow := dInput.Row(r)
		for f := 0; f < fields; f++ {
			tensor.Add(drow[f*dim:(f+1)*dim], gb.Row(int(batchIdx[r*fields+f])))
		}
	}

	// Apply updates under the protocol.
	var updComm float64
	if cfg.PS != nil {
		updComm = w.psUpdate(gb)
	} else {
		ustats := w.t.table.Update(w.id, uniq, gb, cfg.Staleness)
		w.iterLocalSecondary = int64(ustats.LocalSecondary)
		w.iterRemotePush = int64(ustats.RemotePush)
		w.iterFlushed = int64(ustats.FlushedPending)
		if w.t.dist != nil {
			w.distUpdPer = append(w.distUpdPer[:0], ustats.PerOwner...)
		}
		updComm = w.chargeOwnerTraffic(ustats.PerOwner)
	}
	w.iterReadComm = readComm
	w.iterUpdateComm = updComm
	commTime := readComm + updComm

	// Simulated compute time: model FLOPs plus embedding gather/update,
	// at the effective (not peak) GPU rate.
	flops := float64(bs)*cfg.Model.FLOPsPerSample() + float64(len(uniq)*dim)*8
	compute := flops / cfg.Topo.EffectiveFlops()
	w.iterCompute = compute
	// Overlap model: linear interpolation between serial (compute+comm)
	// and perfectly pipelined (max of the two).
	serial := compute + commTime
	pipelined := compute
	if commTime > pipelined {
		pipelined = commTime
	}
	w.iterTime = cfg.Overlap*pipelined + (1-cfg.Overlap)*serial
	w.accumulateStats()
}

// chargeOwnerTraffic prices one Read/Update's per-owner traffic against the
// fabric and returns this worker's added communication time. Traffic to one
// owner is batched into one message per direction, as the paper's NCCL
// implementation does.
func (w *worker) chargeOwnerTraffic(per []embed.OwnerTraffic) float64 {
	var dt float64
	vecBytes := w.t.table.BytesPerVector()
	crossNode := func(owner int) bool {
		return w.t.cfg.Topo.NodeOf(owner) != w.t.cfg.Topo.NodeOf(w.id)
	}
	for owner, tr := range per {
		if owner == w.id {
			continue
		}
		// Outbound: indexes+clocks and write-back gradients.
		var out [3]int64
		out[comm.CatMeta] = int64(tr.MetaKeys) * embed.BytesPerKey
		out[comm.CatEmbedding] = int64(tr.FlushVecs) * vecBytes
		dt += w.t.fabric.TransferBatch(w.id, owner, out)
		// Inbound: refreshed/fetched embedding vectors.
		var in [3]int64
		in[comm.CatEmbedding] = int64(tr.SyncVecs) * vecBytes
		dt += w.t.fabric.TransferBatchRecv(owner, w.id, in)
		if crossNode(owner) {
			w.iterNICOut += out[0] + out[1] + out[2]
			w.iterNICIn += in[0] + in[1] + in[2]
		}
	}
	return dt
}

// Parameter-server software overheads: the RPC stack, request dispatch and
// CPU-side (de)serialisation that a TensorFlow-style PS pays per request and
// NCCL peer-to-peer transfers do not. Calibrated to the order of gRPC
// round-trip costs on the paper's hardware generation.
const (
	psReadOverhead   = 120e-6 // seconds per pull request
	psUpdateOverhead = 60e-6  // seconds per push request
)

// psRead models the parameter-server gather: every unique embedding is
// fetched from its host shard over the CPU link. Values still come from
// the table's primaries so learning remains real.
func (w *worker) psRead() float64 {
	var dt float64
	perHost := w.hostVecs
	clear(perHost)
	for i, x := range w.prep.uniq {
		copy(w.embBuf.Row(i), w.t.table.PrimaryRow(x))
		perHost[w.t.psHome[x]]++
	}
	vecBytes := w.t.table.BytesPerVector()
	for h, cnt := range perHost {
		if cnt == 0 {
			continue
		}
		dt += w.t.fabric.HostTransfer(w.id, h, int64(cnt)*embed.BytesPerKey, comm.CatMeta)
		dt += w.t.fabric.HostTransfer(w.id, h, int64(cnt)*vecBytes, comm.CatEmbedding)
		w.iterHostBytes[h] += int64(cnt) * (embed.BytesPerKey + vecBytes)
		dt += psReadOverhead
	}
	return dt
}

// psUpdate pushes gradients to the PS shards and queues them for commit.
func (w *worker) psUpdate(gb *tensor.Matrix) float64 {
	cfg := &w.t.cfg
	var dt float64
	perHost := w.hostVecs
	clear(perHost)
	for i, x := range w.prep.uniq {
		perHost[w.t.psHome[x]]++
		w.t.table.QueuePrimary(w.id, x, gb.Row(i))
	}
	vecBytes := w.t.table.BytesPerVector()
	var applyFlops float64
	for h, cnt := range perHost {
		if cnt == 0 {
			continue
		}
		dt += w.t.fabric.HostTransfer(w.id, h, int64(cnt)*vecBytes, comm.CatEmbedding)
		w.iterHostBytes[h] += int64(cnt) * vecBytes
		applyFlops += float64(cnt) * float64(cfg.Dim) * 4
		dt += psUpdateOverhead
	}
	// The CPU host applies the sparse updates.
	dt += applyFlops / cfg.Topo.HostFlops
	return dt
}
