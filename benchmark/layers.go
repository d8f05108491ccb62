package main

import (
	"errors"
	"fmt"

	"hetgmp/internal/comm"
	"hetgmp/internal/engine"
)

// Every function here turns spans and the layers' own counts into per-layer
// metrics in m. An error is a failed operation: the trace does not account
// for the run it was taken from.

// calls is the spans of one name under one parent.
type calls []span

// tree indexes spans by parent and name.
type tree map[int32]map[string]calls

func index(spans []span) tree {
	t := tree{}
	for _, s := range spans {
		if t[s.Parent] == nil {
			t[s.Parent] = map[string]calls{}
		}
		t[s.Parent][s.Name] = append(t[s.Parent][s.Name], s)
	}
	return t
}

// root returns the last parentless span called name.
func (t tree) root(name string) span {
	c := t[noParent][name]
	return c[len(c)-1]
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// seconds lists the calls' durations.
func (c calls) seconds() []float64 {
	out := make([]float64, len(c))
	for i, s := range c {
		out[i] = s.seconds()
	}
	return out
}

func (c calls) work() (total int64) {
	for _, s := range c {
		total += s.Work
	}
	return total
}

// perWork is the median over the calls of seconds per unit of work. The
// engine runs more goroutines than there are Ps, so a span now and then
// includes a stretch in which its goroutine was not running; the median
// call is not one of those, the mean would be.
func (c calls) perWork() float64 {
	var out []float64
	for _, s := range c {
		if s.Work > 0 {
			out = append(out, s.seconds()/float64(s.Work))
		}
	}
	return median(out)
}

// tailLadder is the percentiles a tail is taken from: the highest one that
// has minBeyond samples beyond it.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// ledger collects the metrics of one traced run.
type ledger struct {
	m     map[string]float64
	tails map[string]tail
	quick bool
}

// tail says which percentile a *_tail metric is, and of how many samples.
type tail struct {
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
}

// dist reports a timing's distribution: name_p50, and name_tail — the
// highest percentile of the ladder that has minBeyond samples beyond it.
// Outside -quick it fails when not even the median has.
func (l *ledger) dist(name string, seconds []float64, scale float64) error {
	l.m[name+"_p50"] = median(seconds) * scale
	var pc, v float64
	var ok bool
	for _, pc = range tailLadder {
		if v, ok = percentile(seconds, pc); ok {
			break
		}
	}
	l.m[name+"_tail"] = v * scale
	l.tails[name+"_tail"] = tail{Percentile: pc * 100, N: len(seconds)}
	if !ok && !l.quick {
		return fmt.Errorf("%s: %d samples are too few for a percentile", name, len(seconds))
	}
	return nil
}

// setup reads the set-up's stage spans; with several ranks setting up side
// by side, the slowest one is what the user waits for.
func (l *ledger) setup(t tree) {
	root := t.root("setup").ID
	slowest := func(name string) (max float64) {
		for _, d := range t[root][name].seconds() {
			if d > max {
				max = d
			}
		}
		return max
	}
	l.m["dataset.generate_s"] = slowest("dataset.generate")
	l.m["bigraph.build_s"] = slowest("bigraph.build")
	l.m["partition.hybrid_s"] = slowest("partition.hybrid")
	l.m["engine.new_trainer_s"] = slowest("engine.new_trainer")
}

// embedProbe reads the embed probe's spans and returns the seconds its one
// epoch of table calls took.
func (l *ledger) embedProbe(t tree, r *rank) (epoch float64, err error) {
	c := t[t.root("embed.probe").ID]
	read, update, commit := c["embed.read"], c["embed.update"], c["embed.commit"]
	flush := sum(c["embed.flush"].seconds())
	l.m["embed.read_ns_per_row"] = sum(read.seconds()) * 1e9 / float64(read.work())
	l.m["embed.update_ns_per_row"] = sum(update.seconds()) * 1e9 / float64(update.work())
	l.m["embed.commit_ns_per_update"] = sum(commit.seconds()) * 1e9 / float64(commit.work())
	l.m["embed.flush_ms"] = flush * 1e3
	mb := float64(r.in.train.NumFeatures) * float64(r.in.spec.dim*4+8) / 1e6 // rows and clocks
	l.m["embed.ckpt_write_mb_per_s"] = mb / sum(c["embed.ckpt_write"].seconds())
	l.m["embed.ckpt_read_mb_per_s"] = mb / sum(c["embed.ckpt_read"].seconds())
	err = errors.Join(
		l.dist("embed.read_us", read.seconds(), 1e6),
		l.dist("embed.update_us", update.seconds(), 1e6),
		l.dist("embed.commit_us", commit.seconds(), 1e6),
	)
	return sum(read.seconds()) + sum(update.seconds()) + sum(commit.seconds()) + flush, err
}

// nnCost is what the ranks' dense networks did under their engine.run spans:
// the work their wrappers counted, and the median call's cost per unit.
type nnCost struct {
	forward, backward float64 // seconds per row
	grads             float64 // seconds per call
	forwardRows       int64
	backwardRows      int64
	gradCalls         int
}

func nnCostOf(t tree, j *job) nnCost {
	var f, b, g calls
	for _, r := range j.ranks {
		c := t[r.hooks.run]
		f, b, g = append(f, c["nn.forward"]...), append(b, c["nn.backward"]...), append(g, c["nn.grads"]...)
	}
	return nnCost{f.perWork(), b.perWork(), median(g.seconds()), f.work(), b.work(), len(g)}
}

// kernels is the seconds the forward and backward passes took.
func (c nnCost) kernels() float64 {
	return c.forward*float64(c.forwardRows) + c.backward*float64(c.backwardRows)
}

// busy is the seconds the dense network was computing.
func (c nnCost) busy() float64 { return c.kernels() + c.grads*float64(c.gradCalls) }

// tracedRun reads the traced run: rank 0's spans for per-iteration numbers,
// every rank's for the dense network (the CPU seconds are the process's).
func (l *ledger) tracedRun(t tree, j *job, res *engine.Result, wall, cpu float64) error {
	m, r0 := l.m, j.ranks[0]
	run := t[r0.hooks.run]
	iters := float64(res.Iterations)

	nn := nnCostOf(t, j)
	m["nn.forward_ns_per_row"] = nn.forward * 1e9
	m["nn.backward_ns_per_row"] = nn.backward * 1e9
	m["nn.grads_us_per_call"] = nn.grads * 1e6
	// nn counts 2 FLOPs per weight forward and 4 backward.
	flops := float64(r0.denseParams) * float64(2*nn.forwardRows+4*nn.backwardRows)
	m["nn.gflops"] = flops / nn.kernels() / 1e9
	m["nn.busy_share"] = nn.busy() / cpu

	// One nn.apply_dense per iteration: its start is the iteration's stamp,
	// the optimizer's spans under it are the dense step.
	applies := run["nn.apply_dense"]
	var steps, gaps []float64
	for i, a := range applies {
		steps = append(steps, sum(t[a.ID]["optim.dense_step"].seconds()))
		if i > 0 {
			gaps = append(gaps, float64(a.Start-applies[i-1].Start)/1e9)
		}
	}
	m["optim.dense_step_us_p50"] = median(steps) * 1e6
	m["optim.sparse_rows_per_iter"] = float64(r0.hooks.sparseRows()) / iters
	err := l.dist("engine.iter_ms", gaps, 1e3)
	if len(applies) != res.Iterations {
		err = fmt.Errorf("%d iteration stamps for %d iterations", len(applies), res.Iterations)
	}

	m["engine.run_s_traced"] = wall
	m["engine.cpu_s_per_msample"] = cpu / (float64(res.SamplesProcessed) / 1e6)
	m["engine.core_util"] = cpu / wall
	m["engine.sim_samples_per_s"] = res.Throughput
	m["engine.sim_comm_frac"] = res.CommFraction()
	m["comm.sim_embedding_mb"] = float64(res.Breakdown.Bytes[comm.CatEmbedding]) / 1e6
	m["comm.sim_meta_mb"] = float64(res.Breakdown.Bytes[comm.CatMeta]) / 1e6
	m["comm.sim_dense_mb"] = float64(res.Breakdown.Bytes[comm.CatDense]) / 1e6

	reads := res.LocalPrimary + res.LocalFresh + res.SyncedIntra + res.SyncedInter + res.RemoteReads
	secondary := res.LocalFresh + res.SyncedIntra + res.SyncedInter
	m["embed.remote_read_frac"] = ratio(res.RemoteReads, reads)
	m["embed.replica_hit_frac"] = ratio(res.LocalFresh, secondary)
	m["embed.synced_reads"] = float64(res.SyncedIntra + res.SyncedInter)

	// A layer the workload does not use reports zero work.
	for _, name := range []string{
		"embed.tier_read_hit_rate", "embed.tier_commit_hit_rate", "embed.tier_promotions", "embed.tier_demotions",
		"embed.tier_hot_mb", "embed.tier_warm_mb", "embed.tier_cold_mb",
		"comm.wire_mb_per_iter", "comm.wire_msgs_per_iter", "comm.recv_wait_share",
	} {
		m[name] = 0
	}
	if ts := res.TierStats; ts != nil {
		m["embed.tier_read_hit_rate"] = ts.ReadHitRate()
		m["embed.tier_commit_hit_rate"] = ts.CommitHitRate()
		m["embed.tier_promotions"] = float64(ts.Promotions)
		m["embed.tier_demotions"] = float64(ts.Demotions)
		m["embed.tier_hot_mb"] = float64(ts.HotBytes) / (1 << 20)
		m["embed.tier_warm_mb"] = float64(ts.WarmBytes) / (1 << 20)
		m["embed.tier_cold_mb"] = float64(ts.ColdBytes) / (1 << 20)
	}
	if r0.tp != nil {
		msgs, bytes := r0.tp.Stats().TotalSent()
		m["comm.wire_mb_per_iter"] = float64(bytes) / 1e6 / iters
		m["comm.wire_msgs_per_iter"] = float64(msgs) / iters
		m["comm.recv_wait_share"] = sum(run["comm.recv"].seconds()) / wall
	}
	return err
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sharesAtP1 attributes the wall clock of the GOMAXPROCS=1 traced run. On
// one P the layers cannot overlap, so the shares add up: nn is its counted
// work at the median call's cost, optim its spans (the dense step runs while
// the workers wait), embed the probe's serial replay of the same epochs,
// and the rest — batch prep, gather and scatter, dense reduce, pool
// hand-offs, evaluation — is the engine's own.
func (l *ledger) sharesAtP1(t tree, j *job, wall, embed float64) error {
	nn := nnCostOf(t, j).busy()
	var optim float64
	for _, a := range t[j.ranks[0].hooks.run]["nn.apply_dense"] {
		optim += sum(t[a.ID]["optim.dense_step"].seconds())
	}
	l.m["embed.share_at_p1"] = embed / wall
	self := 1 - (nn+optim+embed)/wall
	l.m["engine.self_share_at_p1"] = self
	if (self < 0 || self > 0.6) && !l.quick {
		return fmt.Errorf("engine self share %.3f outside [0, 0.6]: nn %.3f s, optim %.3f s, embed %.3f s of %.3f s",
			self, nn, optim, embed, wall)
	}
	return nil
}

// pairMeans averages consecutive pairs. Two ranks that run the same
// collective back to back settle into a fixed phase offset d, and one rank
// sees its rounds take L+d, L−d, L+d, …; the mean of a pair is L.
func pairMeans(xs []float64) []float64 {
	out := make([]float64, 0, len(xs)/2)
	for i := 0; i+1 < len(xs); i += 2 {
		out = append(out, (xs[i]+xs[i+1])/2)
	}
	return out
}

// commProbe reads the comm probe's spans (rank 0's).
func (l *ledger) commProbe(t tree) error {
	c := t[t.root("comm.probe").ID]
	var send []float64
	for _, x := range c["comm.exchange"] {
		send = append(send, t[x.ID]["comm.send"].seconds()...)
	}
	l.m["comm.connect_ms"] = sum(c["comm.connect"].seconds()) * 1e3
	l.m["comm.barrier_us_p50"] = median(pairMeans(c["comm.barrier"].seconds())) * 1e6
	l.m["comm.send_us_p50"] = median(send) * 1e6
	return l.dist("comm.exchange_us", pairMeans(c["comm.exchange"].seconds()), 1e6)
}
