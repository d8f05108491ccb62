// MemTransport: the in-process reference implementation of Transport. It
// delivers messages through unbounded per-link FIFO queues in one address
// space — the "simulated" backend the conformance suite holds every real
// backend against. Ledger bytes are accounted with the shared wire format's
// FrameSize even though no frame is ever materialised, so a mem run and a
// TCP run of the same message sequence report identical Stats.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MemTransport is one endpoint of an in-process full mesh built by
// NewMemNetwork.
type MemTransport struct {
	rank  int
	peers []*MemTransport
	// inbox[from] buffers messages from rank `from` to this endpoint, and
	// pools[from] recycles their payload copies.
	inbox []*MessageQueue
	pools []PayloadPool
	stats Ledger

	mu      sync.Mutex
	timeout time.Duration
	closed  atomic.Bool
}

// NewMemNetwork builds an n-rank in-process mesh and returns one endpoint
// per rank.
func NewMemNetwork(n int) []*MemTransport {
	if n <= 0 {
		panic(fmt.Sprintf("comm: mem network needs at least one rank, got %d", n))
	}
	ts := make([]*MemTransport, n)
	for r := 0; r < n; r++ {
		inbox := make([]*MessageQueue, n)
		for p := range inbox {
			inbox[p] = &MessageQueue{}
		}
		ts[r] = &MemTransport{rank: r, inbox: inbox, pools: make([]PayloadPool, n)}
		ts[r].stats.InitPeers(n)
	}
	for r := range ts {
		ts[r].peers = ts
	}
	return ts
}

// Rank implements Transport.
func (t *MemTransport) Rank() int { return t.rank }

// Size implements Transport.
func (t *MemTransport) Size() int { return len(t.peers) }

// SetRecvTimeout implements Transport.
func (t *MemTransport) SetRecvTimeout(d time.Duration) {
	t.mu.Lock()
	t.timeout = d
	t.mu.Unlock()
}

func (t *MemTransport) recvTimeout() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timeout
}

// Stats implements Transport.
func (t *MemTransport) Stats() Stats { return t.stats.Snapshot() }

// LinkStats implements Transport.
func (t *MemTransport) LinkStats() []LinkStats { return t.stats.LinkSnapshot() }

// Send implements Transport. The message is validated against the wire
// format's limits (type, payload size) so a payload a real backend could
// not frame is rejected here too. The payload is copied into a buffer the
// receiving endpoint lends, as a socket backend copies it onto the wire.
func (t *MemTransport) Send(to int, m *Message) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= len(t.peers) {
		return fmt.Errorf("comm: send to rank %d outside mesh of %d", to, len(t.peers))
	}
	if int(m.Type) >= NumMsgTypes {
		return fmt.Errorf("%w: %d", ErrBadType, int(m.Type))
	}
	if len(m.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(m.Payload))
	}
	peer := t.peers[to]
	size := FrameSize(len(m.Payload))
	payload := peer.pools[t.rank].Get(len(m.Payload))
	copy(payload, m.Payload)
	if !peer.inbox[t.rank].Push(&Message{Type: m.Type, Seq: m.Seq, Payload: payload}) {
		return &PeerError{Peer: to, Op: "send to", Err: ErrPeerClosed}
	}
	t.stats.RecordSendTo(to, m.Type, size)
	peer.stats.RecordRecvFrom(t.rank, m.Type, size)
	return nil
}

// Recv implements Transport. Queue terminal errors are already typed
// (ErrClosed / ErrTimeout / *PeerError) and pass through unchanged.
func (t *MemTransport) Recv(from int) (*Message, error) {
	if from < 0 || from >= len(t.peers) {
		return nil, fmt.Errorf("comm: recv from rank %d outside mesh of %d", from, len(t.peers))
	}
	return t.inbox[from].Pop(t.recvTimeout())
}

// Release implements Transport.
func (t *MemTransport) Release(from int, payload []byte) {
	if from >= 0 && from < len(t.pools) {
		t.pools[from].Put(payload)
	}
}

// Close implements Transport: pending local receives unblock with
// ErrClosed, and every peer's next receive on its link from this rank
// surfaces ErrPeerClosed — the same fault a closed socket produces.
func (t *MemTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, q := range t.inbox {
		q.CloseWith(ErrClosed)
	}
	for r, peer := range t.peers {
		if r == t.rank {
			continue
		}
		peer.inbox[t.rank].CloseWith(&PeerError{Peer: t.rank, Op: "recv from", Err: ErrPeerClosed})
	}
	return nil
}
