// Coordinator: the collective layer the distributed engine drives a
// Transport through. Every synchronisation point in distributed training —
// the per-iteration frame, epoch flushes, barriers — is one Exchange: an
// all-gather where each rank contributes one payload and receives every
// rank's.
package comm

import "fmt"

// Coordinator runs sequence-stamped collective rounds over one transport.
// It is not safe for concurrent use: the engine calls it from its
// single-threaded barrier sections only.
type Coordinator struct {
	tr  Transport
	seq uint64
}

// NewCoordinator wraps tr.
func NewCoordinator(tr Transport) *Coordinator { return &Coordinator{tr: tr} }

// Transport returns the underlying transport.
func (c *Coordinator) Transport() Transport { return c.tr }

// Exchange all-gathers one payload per rank: this rank's payload is sent to
// every peer as a message of type mt, and the result holds rank r's payload
// at index r. This rank's own entry is payload itself, which the caller may
// reuse once Exchange returns; the peers' are lent until Release. All ranks
// must call Exchange in the same order with the same types — the shared
// sequence number makes a desynchronised, duplicated or dropped round
// surface as a *ProtocolError or ErrTimeout instead of silent corruption
// or a hang.
//
// Deadlock freedom: every rank sends all its messages before receiving any,
// and every endpoint accepts incoming messages into an unbounded inbox
// whether or not its application is receiving (the Transport contract), so
// a Send that blocks on full link buffers waits only for the peer endpoint
// to drain them — the round never requires a peer to reach Recv before a
// sender completes.
func (c *Coordinator) Exchange(mt MsgType, payload []byte) ([][]byte, error) {
	c.seq++
	n, rank := c.tr.Size(), c.tr.Rank()
	out := make([][]byte, n)
	out[rank] = payload
	for p := 0; p < n; p++ {
		if p == rank {
			continue
		}
		if err := c.tr.Send(p, &Message{Type: mt, Seq: c.seq, Payload: payload}); err != nil {
			return nil, fmt.Errorf("comm: exchange %s seq %d: %w", mt, c.seq, err)
		}
	}
	for p := 0; p < n; p++ {
		if p == rank {
			continue
		}
		m, err := c.tr.Recv(p)
		if err != nil {
			return nil, fmt.Errorf("comm: exchange %s seq %d: %w", mt, c.seq, err)
		}
		if m.Type != mt || m.Seq != c.seq {
			return nil, &ProtocolError{
				From:     p,
				WantType: mt, GotType: m.Type,
				WantSeq: c.seq, GotSeq: m.Seq,
			}
		}
		out[p] = m.Payload
	}
	return out, nil
}

// Release hands every peer payload of an Exchange result back to the
// transport (Transport.Release); the caller must be done with all of them.
// This rank's own entry is its caller's buffer and is left alone.
func (c *Coordinator) Release(frames [][]byte) {
	rank := c.tr.Rank()
	for p, f := range frames {
		if p != rank {
			c.tr.Release(p, f)
		}
	}
}

// Barrier is an empty-payload control Exchange: it returns once every rank
// has entered it.
func (c *Coordinator) Barrier() error {
	_, err := c.Exchange(MsgControl, nil)
	return err
}
