package main

import (
	"sync/atomic"

	"hetgmp/internal/comm"
	"hetgmp/internal/nn"
	"hetgmp/internal/optim"
	"hetgmp/internal/tensor"
)

// hooks is what the wrappers of one trainer share: the tracer and the span
// of the Trainer.Run call they are observed under.
type hooks struct {
	tr *tracer
	// run is set before Trainer.Run starts and only read while it runs.
	run int32
	// apply is the open nn.apply_dense span; the optimizer's spans hang
	// under it. The engine applies the dense step from one goroutine.
	apply atomic.Int32

	// sparse counts the rows the embedding optimizer applied, striped by
	// feature id: the table's commit applies rows from one goroutine per
	// owner, and one shared counter would have them fight over its line.
	sparse [64]struct {
		rows atomic.Int64
		_    [56]byte
	}
}

func (h *hooks) sparseRows() (total int64) {
	for i := range h.sparse {
		total += h.sparse[i].rows.Load()
	}
	return total
}

// tracedNet wraps the dense network the engine is configured with. The
// engine puts nn.Parallel on top of it, so it sees the 64-row shard calls,
// from several goroutines at once.
type tracedNet struct {
	nn.Network
	h *hooks
}

func (n *tracedNet) Forward(st nn.State, input *tensor.Matrix, rows int) []float32 {
	start := n.h.tr.now()
	out := n.Network.Forward(st, input, rows)
	n.h.tr.leaf("nn.forward", n.h.run, start, int64(rows))
	return out
}

func (n *tracedNet) Backward(st nn.State, dLogit []float32) *tensor.Matrix {
	start := n.h.tr.now()
	out := n.Network.Backward(st, dLogit)
	n.h.tr.leaf("nn.backward", n.h.run, start, int64(len(dLogit)))
	return out
}

func (n *tracedNet) Grads(st nn.State, dst []float32) {
	start := n.h.tr.now()
	n.Network.Grads(st, dst)
	n.h.tr.leaf("nn.grads", n.h.run, start, 0)
}

// ApplyDense is called once per iteration, after the dense reduce: its
// start times are the iteration stamps.
func (n *tracedNet) ApplyDense(step func(params, grad []float32), grad []float32) {
	id := n.h.tr.begin("nn.apply_dense", n.h.run)
	n.h.apply.Store(id)
	n.Network.ApplyDense(step, grad)
	n.h.tr.end(id)
}

// tracedDense wraps the dense optimizer.
type tracedDense struct {
	optim.Dense
	h *hooks
}

func (d *tracedDense) Step(params, grad []float32) {
	start := d.h.tr.now()
	d.Dense.Step(params, grad)
	d.h.tr.leaf("optim.dense_step", d.h.apply.Load(), start, int64(len(params)))
}

// tracedChunkedDense also forwards optim.ChunkedDense, which the engine
// asserts for: without it the traced run would take the serial dense step
// and measure another code path.
type tracedChunkedDense struct {
	tracedDense
	chunked optim.ChunkedDense
}

func (d *tracedChunkedDense) StepAt(offset int, params, grad []float32) {
	start := d.h.tr.now()
	d.chunked.StepAt(offset, params, grad)
	d.h.tr.leaf("optim.dense_step", d.h.apply.Load(), start, int64(len(params)))
}

func wrapDense(d optim.Dense, h *hooks) optim.Dense {
	td := tracedDense{Dense: d, h: h}
	if c, ok := d.(optim.ChunkedDense); ok {
		return &tracedChunkedDense{tracedDense: td, chunked: c}
	}
	return &td
}

// countedSparse counts the rows the embedding optimizer applies; a span per
// row would cost more than the row.
type countedSparse struct {
	optim.Sparse
	h *hooks
}

func (s *countedSparse) Apply(x int32, row, grad []float32) {
	s.h.sparse[x&63].rows.Add(1)
	s.Sparse.Apply(x, row, grad)
}

// countedLinearSparse also forwards optim.Linearizable, which the table
// consults before fusing queued deltas.
type countedLinearSparse struct {
	countedSparse
	linear optim.Linearizable
}

func (s *countedLinearSparse) Linear() bool { return s.linear.Linear() }

func wrapSparse(s optim.Sparse, h *hooks) optim.Sparse {
	cs := countedSparse{Sparse: s, h: h}
	if l, ok := s.(optim.Linearizable); ok {
		return &countedLinearSparse{countedSparse: cs, linear: l}
	}
	return &cs
}

// tracedTransport wraps a rank's transport. parent is the span its sends
// and receives hang under: the rank's engine.run, or the comm probe's
// current round. Each rank drives its transport from one goroutine, which
// is also the one that sets parent.
type tracedTransport struct {
	comm.Transport
	tr     *tracer
	parent int32
}

func (t *tracedTransport) Send(to int, m *comm.Message) error {
	start := t.tr.now()
	err := t.Transport.Send(to, m)
	t.tr.leaf("comm.send", t.parent, start, 0)
	return err
}

func (t *tracedTransport) Recv(from int) (*comm.Message, error) {
	start := t.tr.now()
	m, err := t.Transport.Recv(from)
	t.tr.leaf("comm.recv", t.parent, start, 0)
	return m, err
}
