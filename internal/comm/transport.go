// Transport abstraction: the fabric above prices *simulated* traffic; a
// Transport moves *real* bytes between training ranks. The simulated
// in-memory backend (MemTransport) is the reference implementation — the
// distributed engine produces bit-identical results over it and over real
// sockets (comm/tcpnet), which is what lets the conformance suite use the
// single-process simulation as a correctness oracle for any new backend.
//
// A Transport is a full mesh of point-to-point links carrying typed,
// sequence-stamped messages. The contract every implementation must satisfy
// (and internal/comm/conformance verifies):
//
//   - Per-link FIFO: messages from rank a to rank b arrive in send order.
//   - Concurrent senders: Send may be called from multiple goroutines.
//   - Receive-side buffering without bounds: an endpoint accepts whatever
//     its peers send whether or not its application is in Recv. Send may
//     block while the kernel buffers are full; it never waits for the peer
//     *application*. That is what lets a collective round have every rank
//     send before any rank receives without deadlocking.
//   - Byte ledger: Stats reports per-type message and frame-byte totals
//     using the shared wire format's framing, so two backends carrying the
//     same message sequence report identical ledgers.
//   - Faults surface as typed errors (ErrClosed, ErrPeerClosed, ErrTimeout)
//     rather than hangs or panics.
//   - Buffer lifetime: Send is done with a payload when it returns, so the
//     caller may overwrite or reuse it at once. A received payload is the
//     caller's until it hands it back with Release; the transport may then
//     receive a later message into it.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MsgType classifies a transported message, mirroring the traffic the
// training protocol exchanges (and the fabric's accounting categories).
type MsgType uint8

const (
	// MsgControl is handshakes, barriers and shutdown coordination.
	MsgControl MsgType = iota
	// MsgClockSync carries clock vectors and per-iteration summaries. The
	// engine does not emit it — its summary travels inside the iteration
	// frame (MsgGradPush) — but the type is part of the wire format.
	MsgClockSync
	// MsgGradPush carries queued primary gradient updates — the engine's
	// per-iteration frame (engine/dist.go): iteration summary, queued
	// updates and dense gradient in one message, most of it queued updates.
	MsgGradPush
	// MsgEmbedPull carries embedding-state reconciliation (epoch flushes).
	MsgEmbedPull
	// MsgAllReduce carries dense-gradient segments. The engine does not
	// emit it (its gradient rides in the iteration frame); the benchmark's
	// comm probe and the conformance suite do.
	MsgAllReduce
	// NumMsgTypes bounds the type space; frames with a type at or past it
	// are rejected by the decoder.
	NumMsgTypes = 5
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgControl:
		return "control"
	case MsgClockSync:
		return "clock-sync"
	case MsgGradPush:
		return "grad-push"
	case MsgEmbedPull:
		return "embed-pull"
	case MsgAllReduce:
		return "allreduce"
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// Message is one typed payload on a link. Seq is assigned by the sender
// (the Coordinator stamps one per collective round) and lets receivers
// detect duplicated or out-of-phase traffic. Send copies or writes Payload
// out before it returns; a received Payload is lent (see Transport.Release).
type Message struct {
	Type    MsgType
	Seq     uint64
	Payload []byte
}

// Transport is a full mesh of reliable, ordered, typed message links
// between Size ranks. Implementations: MemTransport (in-process reference)
// and tcpnet.Transport (real sockets).
type Transport interface {
	// Rank is this endpoint's identity in [0, Size).
	Rank() int
	// Size is the number of ranks in the mesh.
	Size() int
	// Send hands m over for delivery to rank `to`. It must be safe for
	// concurrent use. It may block while the link's buffers are full, but
	// only until the peer endpoint drains them — never on the peer
	// application calling Recv — and a backend with a receive timeout
	// configured bounds that wait by it and reports a typed error. Send
	// is done with m.Payload when it returns: the caller may reuse it.
	Send(to int, m *Message) error
	// Recv blocks for the next message from rank `from`, honouring the
	// configured receive timeout. Messages from one peer arrive in send
	// order. The payload stays valid until the caller Releases it.
	Recv(from int) (*Message, error)
	// Release hands a payload Recv returned from rank `from` back to the
	// transport, which may receive a later message into it; the caller
	// must not touch it afterwards. Releasing is optional — an unreleased
	// payload is garbage collected — and a payload the transport did not
	// lend, or one released twice, is ignored.
	Release(from int, payload []byte)
	// SetRecvTimeout bounds every subsequent Recv; 0 disables the bound.
	SetRecvTimeout(d time.Duration)
	// Stats snapshots the per-type byte/message ledger.
	Stats() Stats
	// LinkStats snapshots the per-peer byte/message ledger, indexed by
	// peer rank (the entry for this endpoint's own rank is zero). The sums
	// over all links equal the Stats totals.
	LinkStats() []LinkStats
	// Close tears the endpoint down, unblocking pending receives with
	// ErrClosed and surfacing ErrPeerClosed to peers.
	Close() error
}

// Stats is a transport's byte ledger: per-type message counts and frame
// bytes (header + payload, as framed by the shared wire format), split by
// direction. Received traffic is counted when a frame is accepted off the
// link, not when the application pops it.
type Stats struct {
	SentMsgs  [NumMsgTypes]int64
	SentBytes [NumMsgTypes]int64
	RecvMsgs  [NumMsgTypes]int64
	RecvBytes [NumMsgTypes]int64
}

// TotalSent sums messages and bytes over all types.
func (s Stats) TotalSent() (msgs, bytes int64) {
	for t := 0; t < NumMsgTypes; t++ {
		msgs += s.SentMsgs[t]
		bytes += s.SentBytes[t]
	}
	return
}

// TotalRecv sums messages and bytes over all types.
func (s Stats) TotalRecv() (msgs, bytes int64) {
	for t := 0; t < NumMsgTypes; t++ {
		msgs += s.RecvMsgs[t]
		bytes += s.RecvBytes[t]
	}
	return
}

// LinkStats is one peer link's share of the byte ledger: messages and
// frame bytes this endpoint sent to and received from Peer, summed over
// message types.
type LinkStats struct {
	Peer      int
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
	RecvBytes int64
}

// linkCell is one peer's lock-free accumulator inside a Ledger.
type linkCell struct {
	sentMsgs  atomic.Int64
	sentBytes atomic.Int64
	recvMsgs  atomic.Int64
	recvBytes atomic.Int64
}

// Ledger is the lock-free accumulation behind Stats, shared by transport
// backends (MemTransport here, tcpnet.Transport over real sockets). After
// InitPeers it also keeps a per-peer breakdown via RecordSendTo /
// RecordRecvFrom; the directionless RecordSend / RecordRecv remain for
// callers with no peer attribution.
type Ledger struct {
	sentMsgs  [NumMsgTypes]atomic.Int64
	sentBytes [NumMsgTypes]atomic.Int64
	recvMsgs  [NumMsgTypes]atomic.Int64
	recvBytes [NumMsgTypes]atomic.Int64
	links     []linkCell
}

// InitPeers sizes the per-peer breakdown for an n-rank mesh. Must be
// called before any concurrent Record*To/From use.
func (c *Ledger) InitPeers(n int) {
	c.links = make([]linkCell, n)
}

// RecordSend accounts one sent frame of the given wire size.
func (c *Ledger) RecordSend(t MsgType, frameBytes int64) {
	c.sentMsgs[t].Add(1)
	c.sentBytes[t].Add(frameBytes)
}

// RecordRecv accounts one frame accepted off a link.
func (c *Ledger) RecordRecv(t MsgType, frameBytes int64) {
	c.recvMsgs[t].Add(1)
	c.recvBytes[t].Add(frameBytes)
}

// RecordSendTo accounts one frame sent to peer, in both the per-type
// aggregate and the per-peer breakdown.
func (c *Ledger) RecordSendTo(peer int, t MsgType, frameBytes int64) {
	c.RecordSend(t, frameBytes)
	if peer >= 0 && peer < len(c.links) {
		c.links[peer].sentMsgs.Add(1)
		c.links[peer].sentBytes.Add(frameBytes)
	}
}

// RecordRecvFrom accounts one frame accepted off the link from peer.
func (c *Ledger) RecordRecvFrom(peer int, t MsgType, frameBytes int64) {
	c.RecordRecv(t, frameBytes)
	if peer >= 0 && peer < len(c.links) {
		c.links[peer].recvMsgs.Add(1)
		c.links[peer].recvBytes.Add(frameBytes)
	}
}

// Snapshot copies the ledger into a Stats value.
func (c *Ledger) Snapshot() Stats {
	var s Stats
	for t := 0; t < NumMsgTypes; t++ {
		s.SentMsgs[t] = c.sentMsgs[t].Load()
		s.SentBytes[t] = c.sentBytes[t].Load()
		s.RecvMsgs[t] = c.recvMsgs[t].Load()
		s.RecvBytes[t] = c.recvBytes[t].Load()
	}
	return s
}

// LinkSnapshot copies the per-peer breakdown, indexed by peer rank. Nil
// until InitPeers.
func (c *Ledger) LinkSnapshot() []LinkStats {
	if c.links == nil {
		return nil
	}
	ls := make([]LinkStats, len(c.links))
	for p := range c.links {
		ls[p] = LinkStats{
			Peer:      p,
			SentMsgs:  c.links[p].sentMsgs.Load(),
			SentBytes: c.links[p].sentBytes.Load(),
			RecvMsgs:  c.links[p].recvMsgs.Load(),
			RecvBytes: c.links[p].recvBytes.Load(),
		}
	}
	return ls
}

// Transport fault sentinels. Implementations wrap them in *PeerError where
// a specific peer is implicated, so callers can errors.Is against the
// sentinel and errors.As for the peer.
var (
	// ErrClosed reports an operation on a transport the local side closed.
	ErrClosed = errors.New("comm: transport closed")
	// ErrPeerClosed reports a link torn down by the remote side.
	ErrPeerClosed = errors.New("comm: peer closed connection")
	// ErrTimeout reports a Recv that outlived the configured bound.
	ErrTimeout = errors.New("comm: receive timed out")
)

// PeerError attributes a transport fault to one peer rank.
type PeerError struct {
	Peer int
	Op   string
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("comm: %s peer %d: %v", e.Op, e.Peer, e.Err)
}

// Unwrap exposes the underlying sentinel to errors.Is.
func (e *PeerError) Unwrap() error { return e.Err }

// ProtocolError reports a message that broke the collective protocol: a
// duplicate delivery, a dropped round, or a backend delivering out of phase.
type ProtocolError struct {
	From              int
	WantType, GotType MsgType
	WantSeq, GotSeq   uint64
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("comm: protocol violation from rank %d: want %s seq %d, got %s seq %d",
		e.From, e.WantType, e.WantSeq, e.GotType, e.GotSeq)
}

// MessageQueue is an unbounded FIFO of messages with timed, multi-consumer
// pops and a terminal error. Both backends use it as the per-peer inbox:
// unboundedness is what lets a collective round have every rank send before
// any rank receives without deadlocking.
type MessageQueue struct {
	mu     sync.Mutex
	items  []*Message
	closed bool
	err    error
	wake   chan struct{}
}

// Push appends m; it reports false once the queue is closed.
func (q *MessageQueue) Push(m *Message) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, m)
	q.wakeLocked()
	return true
}

func (q *MessageQueue) wakeLocked() {
	if q.wake != nil {
		close(q.wake)
		q.wake = nil
	}
}

// Pop removes the head, blocking up to timeout (0: forever). A closed queue
// drains its remaining items first, then returns its terminal error.
func (q *MessageQueue) Pop(timeout time.Duration) (*Message, error) {
	var deadline <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			m := q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			return m, nil
		}
		if q.closed {
			err := q.err
			q.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return nil, err
		}
		if q.wake == nil {
			q.wake = make(chan struct{})
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-deadline:
			return nil, ErrTimeout
		}
	}
}

// CloseWith seals the queue with a terminal error (nil means ErrClosed)
// and wakes every blocked Pop. Items already queued stay poppable.
func (q *MessageQueue) CloseWith(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.err = err
	q.wakeLocked()
}
