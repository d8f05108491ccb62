package analyze

import (
	"fmt"
	"sort"
	"strings"

	"hetgmp/internal/obs"
	"hetgmp/internal/report"
)

// phaseOrder returns the report's phase names in canonical engine order
// first, then any foreign names sorted.
func phaseOrder(phases map[string]PhaseStat) []string {
	var names []string
	seen := make(map[string]bool)
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if _, ok := phases[p.String()]; ok {
			names = append(names, p.String())
			seen[p.String()] = true
		}
	}
	var foreign []string
	for n := range phases {
		if !seen[n] {
			foreign = append(foreign, n)
		}
	}
	sort.Strings(foreign)
	return append(names, foreign...)
}

// String renders the report as the text appended to a run summary: phase
// decomposition, overlap, stragglers, hottest links and quantiles.
func (r *RunReport) String() string {
	var b strings.Builder

	tab := report.New("critical-path decomposition (simulated time)",
		"phase", "spans", "total sim s", "share")
	for _, name := range phaseOrder(r.Phases) {
		ps := r.Phases[name]
		tab.AddRow(name, ps.Spans, ps.Seconds, report.Percent(ps.Share))
	}
	tab.AddNote("total simulated time %.6g s over %d iterations", r.TotalSimSeconds, r.Iterations)
	b.WriteString(tab.String())
	b.WriteByte('\n')

	wt := report.New("per-worker attribution", "worker", "busy sim s", "wait sim s", "bound")
	for _, w := range r.Workers {
		wt.AddRow(fmt.Sprintf("gpu%02d", w.Worker), w.BusySeconds, w.WaitSeconds, w.Bound)
	}
	if r.Stragglers.Slowest >= 0 {
		wt.AddNote("straggler skew: slowest gpu%02d at %.3f× mean busy time (flagged: %d)",
			r.Stragglers.Slowest, r.Stragglers.MaxOverMean, len(r.Stragglers.Flagged))
	}
	wt.AddNote("overlap (%s branch): %.1f%% of %.6g s serial embedding comm hidden under compute",
		r.Overlap.Branch, 100*r.Overlap.Efficiency, r.Overlap.SerialCommSeconds)
	b.WriteString(wt.String())
	b.WriteByte('\n')

	if len(r.Traffic.TopLinks) > 0 || len(r.Traffic.Categories) > 0 {
		tt := report.New("traffic heatmap (hottest links)", "link", "bytes", "share")
		cats := make([]string, 0, len(r.Traffic.Categories))
		for c := range r.Traffic.Categories {
			cats = append(cats, c)
		}
		sort.Slice(cats, func(i, j int) bool {
			return r.Traffic.Categories[cats[i]] > r.Traffic.Categories[cats[j]]
		})
		for _, l := range r.Traffic.TopLinks {
			tt.AddRow(fmt.Sprintf("%02d->%02d", l.Src, l.Dst), report.FormatBytes(l.Bytes), report.Percent(l.Share))
		}
		for _, c := range cats {
			tt.AddNote("category %s: %s", c, report.FormatBytes(r.Traffic.Categories[c]))
		}
		tt.AddNote("total bytes moved: %s", report.FormatBytes(r.Traffic.TotalBytes))
		b.WriteString(tt.String())
		b.WriteByte('\n')
	}

	if r.Capacity != nil {
		b.WriteString(r.Capacity.String())
		b.WriteByte('\n')
	}

	if len(r.Quantiles) > 0 {
		qt := report.New("sim-time quantiles (bucket-interpolated)", "histogram", "count", "p50", "p95", "p99", "max")
		names := make([]string, 0, len(r.Quantiles))
		for n := range r.Quantiles {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q := r.Quantiles[n]
			qt.AddRow(n, q.Count, q.P50, q.P95, q.P99, q.Max)
		}
		b.WriteString(qt.String())
	}
	return b.String()
}

// String renders the capacity block: the measured footprint tree, the
// observed hot set against the partitioner's replica prediction, and the
// read-coverage curve that sizes a hot-row cache.
func (c *CapacityStat) String() string {
	var b strings.Builder

	ft := report.New("measured memory footprint", "component", "bytes", "share")
	for _, e := range c.Footprint.Flatten() {
		name := e.Path
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		var share float64
		if c.MeasuredTotalBytes > 0 {
			share = float64(e.Bytes) / float64(c.MeasuredTotalBytes)
		}
		ft.AddRow(strings.Repeat("  ", e.Depth)+name, report.FormatBytes(e.Bytes), report.Percent(share))
	}
	ft.AddNote("leaves sum to the root: %s measured", report.FormatBytes(c.MeasuredTotalBytes))
	b.WriteString(ft.String())
	b.WriteByte('\n')

	if len(c.Coverage) > 0 {
		ct := report.New("read-coverage curve (hot cache sizing)", "k rows", "cache bytes", "reads covered")
		for _, p := range c.Coverage {
			ct.AddRow(p.K, report.FormatBytes(p.Bytes), report.Percent(p.Coverage))
		}
		ct.AddNote("%d embedding reads observed (Count-Min ε=%.2g δ=%.2g, top-%d × %d stripes)",
			c.TotalReads, c.Sketch.Eps, c.Sketch.Delta, c.Sketch.TopK, c.Sketch.Stripes)
		ct.AddNote("hot-set overlap: %.1f%% of the observed head was replicated by the partitioner (%d replicated features)",
			100*c.HotSetOverlap, c.ReplicatedFeatures)
		b.WriteString(ct.String())
	}

	if ts := c.Tiers; ts != nil {
		b.WriteByte('\n')
		tt := report.New("tiered embedding storage", "tier", "rows", "bytes", "reads", "commits")
		tt.AddRow("hot", ts.HotRows, report.FormatBytes(ts.HotBytes), ts.ReadHot, ts.CommitHot)
		tt.AddRow("warm", ts.WarmRows, report.FormatBytes(ts.WarmBytes), ts.ReadWarm, ts.CommitWarm)
		tt.AddRow("cold", ts.ColdRows, report.FormatBytes(ts.ColdBytes), ts.ReadCold, ts.CommitCold)
		if reads := ts.ReadHot + ts.ReadWarm + ts.ReadCold; reads > 0 {
			tt.AddNote("read hit rate: %.1f%% served from the hot tier", 100*float64(ts.ReadHot)/float64(reads))
		}
		tt.AddNote("tier membership static, ranked by access frequency")
		b.WriteString(tt.String())
	}
	return b.String()
}
