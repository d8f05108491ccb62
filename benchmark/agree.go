package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// disagreements compares two results of one commit and seed, metric by
// metric: an exact metric must be equal, an end-to-end timing must lie
// within its own bound of the other run's, both ways. Per-layer timings have
// no bound and are not compared. It returns one line per disagreement.
func disagreements(a, b *resultFile) []string {
	var out []string
	if a.Meta.Seed != b.Meta.Seed {
		out = append(out, fmt.Sprintf("seeds differ: %d and %d", a.Meta.Seed, b.Meta.Seed))
	}
	if a.OpsFailed+b.OpsFailed > 0 {
		out = append(out, fmt.Sprintf("failed operations: %d and %d", a.OpsFailed, b.OpsFailed))
	}
	for _, sp := range specs {
		for mode, defs := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
			oa, ob := a.Workloads[sp.name][mode], b.Workloads[sp.name][mode]
			if oa == nil || ob == nil {
				out = append(out, fmt.Sprintf("%s %s: missing from a result", sp.name, mode))
				continue
			}
			for _, d := range defs {
				va, okA := oa.Metrics[d.name]
				vb, okB := ob.Metrics[d.name]
				switch {
				case !okA || !okB:
					out = append(out, fmt.Sprintf("%s %s: missing from a result", sp.name, d.name))
				case d.exact && va.Value != vb.Value:
					out = append(out, fmt.Sprintf("%s %s: %v and %v must be equal", sp.name, d.name, va.Value, vb.Value))
				case !d.exact && d.bound > 0:
					if rel := math.Abs(va.Value-vb.Value) / math.Min(math.Abs(va.Value), math.Abs(vb.Value)); rel > d.bound {
						out = append(out, fmt.Sprintf("%s %s: %v and %v differ by %.1f%%, bound %.1f%%",
							sp.name, d.name, va.Value, vb.Value, rel*100, d.bound*100))
					}
				}
			}
		}
	}
	return out
}

func agreeFiles(pathA, pathB string) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := disagreements(a, b)
	for _, line := range bad {
		fmt.Println(line)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Println("the two results agree")
	return 0
}
