package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"hetgmp/internal/comm"
	"hetgmp/internal/comm/tcpnet"
	"hetgmp/internal/embed"
	"hetgmp/internal/tensor"
)

// embedProbe calls the embedding table's public functions itself: it
// replays one epoch of the workload's per-worker deduplicated batches
// through a never-trained trainer's table, serially — Read then Update for
// every worker, then Commit, as one engine iteration orders them — and ends
// with FlushAll and a checkpoint round trip. The gradients are a constant:
// the protocol's work depends on which rows are touched, not on the values.
func embedProbe(r *rank, tr *tracer, tmp string) error {
	sp, in := r.in.spec, r.in
	table := r.trainer.Table()
	fields, dim := in.train.NumFields, sp.dim
	const batch = 256

	shards := make([][]int32, sp.workers)
	for s, w := range in.assign.SampleOf {
		shards[w] = append(shards[w], int32(s))
	}
	iters := 0
	for _, sh := range shards {
		if n := (len(sh) + batch - 1) / batch; n > iters {
			iters = n
		}
	}
	seen := make([]int32, in.train.NumFeatures) // last batch number that saw the feature
	uniq := make([]int32, 0, batch*fields)
	dst := tensor.NewMatrix(batch*fields, dim)
	grad := tensor.NewMatrix(batch*fields, dim)
	for i := range grad.Data {
		grad.Data[i] = 1e-3
	}
	opt := embed.ReadOptions{Staleness: 100, InterCheck: true, Normalize: true}

	root := tr.begin("embed.probe", noParent)
	defer tr.end(root)
	stamp := int32(0)
	for it := 0; it < iters; it++ {
		for w, sh := range shards {
			lo := it * batch
			if lo >= len(sh) {
				continue
			}
			hi := lo + batch
			if hi > len(sh) {
				hi = len(sh)
			}
			stamp++
			uniq = uniq[:0]
			for _, s := range sh[lo:hi] {
				for _, x := range in.train.Samples[s].Features {
					if seen[x] != stamp {
						seen[x] = stamp
						uniq = append(uniq, x)
					}
				}
			}
			start := tr.now()
			table.Read(w, uniq, dst, opt)
			tr.leaf("embed.read", root, start, int64(len(uniq)))

			gb := &tensor.Matrix{Rows: len(uniq), Cols: dim, Data: grad.Data[:len(uniq)*dim]}
			start = tr.now()
			table.Update(w, uniq, gb, opt.Staleness)
			tr.leaf("embed.update", root, start, int64(len(uniq)))
		}
		queued := 0
		for w := range shards {
			queued += table.QueuedCount(w)
		}
		start := tr.now()
		table.Commit()
		tr.leaf("embed.commit", root, start, int64(queued))
	}
	start := tr.now()
	table.FlushAll()
	tr.leaf("embed.flush", root, start, 0)

	path := filepath.Join(tmp, "embed-probe.ckpt")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start = tr.now()
	if _, err := table.WriteTo(f); err != nil {
		return fmt.Errorf("embed probe: checkpoint write: %w", err)
	}
	tr.leaf("embed.ckpt_write", root, start, 0)
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	start = tr.now()
	if _, err := table.ReadFrom(f); err != nil {
		return fmt.Errorf("embed probe: checkpoint read: %w", err)
	}
	tr.leaf("embed.ckpt_read", root, start, 0)
	return nil
}

// commProbe times the collective layer on its own: two ranks on loopback
// tcpnet run a series of Exchanges of payloadBytes (the workload's dense
// gradient, as the engine's allreduce ships it) and then a series of
// Barriers. Rank 0 is traced: comm.exchange and comm.barrier spans, with the
// wrapped transport's comm.send and comm.recv spans under them.
func commProbe(tr *tracer, payloadBytes int, quick bool) error {
	rounds := 400 // 200 pairs: ten beyond the 95th percentile
	if quick {
		rounds = 40
	}
	var listeners []net.Listener
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(listeners)
			return err
		}
		listeners = append(listeners, l)
	}
	addrs := []string{listeners[0].Addr().String(), listeners[1].Addr().String()}
	root := tr.begin("comm.probe", noParent)
	defer tr.end(root)

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wire := &tracedTransport{tr: tr}
			// timed runs fn; on rank 0 under a span that the transport's
			// spans take as parent.
			timed := func(name string, fn func() error) error {
				if i == 0 {
					wire.parent = tr.begin(name, root)
					defer tr.end(wire.parent)
				}
				return fn()
			}
			errs[i] = timed("comm.connect", func() error {
				tp, err := tcpnet.Connect(tcpnet.Config{Rank: i, Peers: addrs, Listener: listeners[i]})
				if err != nil {
					listeners[i].Close()
					return err
				}
				tp.SetRecvTimeout(recvTimeout)
				wire.Transport = tp
				return nil
			})
			if errs[i] != nil {
				return
			}
			defer wire.Transport.Close()
			coord := comm.NewCoordinator(wire.Transport)
			if i == 0 {
				coord = comm.NewCoordinator(wire)
			}
			payload := make([]byte, payloadBytes)
			for n := 0; n < rounds && errs[i] == nil; n++ {
				errs[i] = timed("comm.exchange", func() error {
					_, err := coord.Exchange(comm.MsgAllReduce, payload)
					return err
				})
			}
			for n := 0; n < rounds && errs[i] == nil; n++ {
				errs[i] = timed("comm.barrier", coord.Barrier)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("comm probe rank %d: %w", i, err)
		}
	}
	return nil
}
