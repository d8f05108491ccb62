package comm

import (
	"slices"
	"sync"
)

// payloadPoolDepth bounds both lists of a PayloadPool. A collective round
// holds one payload per peer link, and a fast peer may already have sent
// the next round's, so a few buffers per link cover the steady state.
const payloadPoolDepth = 4

// PayloadPool recycles one link's received payload buffers, for the
// Transport.Release contract. Get lends a buffer to the link's receive
// path; Put takes back a buffer Get lent and nobody has returned since, and
// ignores anything else — a slice the pool never lent, or a second Put of
// the same buffer — so a buffer released twice is never lent to two
// receivers at once. Both lists are bounded: lent buffers a receiver never
// returns drop off the oldest end and are left to the garbage collector.
// It is safe for concurrent use.
type PayloadPool struct {
	mu   sync.Mutex
	lent [][]byte // lent and not yet returned, oldest first
	free [][]byte
}

// Get lends a buffer of length n: a returned one with the capacity, else a
// fresh allocation. n == 0 lends nothing and returns nil.
func (p *PayloadPool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var b []byte
	for i, f := range p.free {
		if cap(f) >= n {
			b = f[:n]
			p.free = slices.Delete(p.free, i, i+1)
			break
		}
	}
	if b == nil {
		// An eighth of headroom lets a link whose payloads vary in size
		// settle on a few buffers instead of allocating at each new largest.
		b = make([]byte, n, n+n/8)
	}
	if len(p.lent) == payloadPoolDepth {
		p.lent = slices.Delete(p.lent, 0, 1)
	}
	p.lent = append(p.lent, b)
	return b
}

// Put returns a buffer Get lent; one that finds the free list full is left
// to the garbage collector.
func (p *PayloadPool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	base := &b[:1][0]
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, l := range p.lent {
		if &l[:1][0] != base {
			continue
		}
		p.lent = slices.Delete(p.lent, i, i+1)
		if len(p.free) < payloadPoolDepth {
			p.free = append(p.free, l)
		}
		return
	}
}
