package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from outside the
// layer: by a wrapper the engine calls through, or by a probe calling the
// layer itself. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // noParent for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the count taken at the same boundary — rows through the dense
	// network, rows through the table — where the layer reports one.
	Work int64 `json:"work,omitempty"`
}

const noParent = int32(-1)

// tracer keeps every span of one workload in memory; write dumps them when
// the benchmark ends. Safe for concurrent use: the nn wrapper is called
// from every goroutine of the engine's compute pool.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span that other spans will name as their parent.
func (t *tracer) begin(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
}

// leaf records a finished span that has no children; start comes from now,
// work is the span's count (0 for none).
func (t *tracer) leaf(name string, parent int32, start, work int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Start: start, End: end, Work: work})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON; every span of the file shares the workload
// identifier.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// unionLen is the total length covered by a set of [start, end) intervals,
// counting overlapping stretches once.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] > hi:
			total += x[1] - x[0]
			hi = x[1]
			first = false
		case x[1] > hi:
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}

// clip restricts s to p's interval; ok is false when nothing is left.
func clip(s, p span) (iv [2]int64, ok bool) {
	a, b := s.Start, s.End
	if a < p.Start {
		a = p.Start
	}
	if b > p.End {
		b = p.End
	}
	return [2]int64{a, b}, b > a
}

// selfTimes returns, index-aligned with spans, each span's duration minus
// the part of it its direct children cover. Children may overlap one another
// (the engine calls the dense network from several goroutines), so the
// cover is a union, not a sum.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent == noParent {
			continue
		}
		if c, ok := clip(s, spans[s.Parent]); ok {
			children[s.Parent] = append(children[s.Parent], c)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - unionLen(children[s.ID])
	}
	return self
}

// nameTime sums the spans of one name.
type nameTime struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	// Self is Total less what the spans' children cover: the time spent in
	// the layer itself rather than in the layers it called.
	Self float64 `json:"self_s"`
}

// timesByName totals duration and self time per span name, in order of
// first appearance.
func timesByName(spans []span) []nameTime {
	self := selfTimes(spans)
	at := map[string]int{}
	var out []nameTime
	for i, s := range spans {
		k, ok := at[s.Name]
		if !ok {
			k = len(out)
			at[s.Name] = k
			out = append(out, nameTime{Name: s.Name})
		}
		out[k].Calls++
		out[k].Total += float64(s.End-s.Start) / 1e9
		out[k].Self += float64(self[i]) / 1e9
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
