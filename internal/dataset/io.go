package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk format is a minimal text encoding, one sample per line:
//
//	label f0 f1 ... f{k-1}
//
// preceded by a single header line:
//
//	#hetgmp name numFields numFeatures off0 off1 ... offK
//
// It exists so users can export real Avazu/Criteo preprocessing output into
// the reproduction without a heavyweight dependency.

// Save writes d to w in the text format above.
func Save(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#hetgmp %s %d %d", d.Name, d.NumFields, d.NumFeatures)
	for _, off := range d.FieldOffset {
		fmt.Fprintf(bw, " %d", off)
	}
	fmt.Fprintln(bw)
	for i := range d.Samples {
		fmt.Fprintf(bw, "%g", d.Samples[i].Label)
		for _, f := range d.Row(i) {
			fmt.Fprintf(bw, " %d", f)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Load parses a dataset from r in the text format written by Save.
func Load(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("dataset: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 4 || header[0] != "#hetgmp" {
		return nil, fmt.Errorf("dataset: missing #hetgmp header")
	}
	d := &Dataset{Name: header[1]}
	var err error
	if d.NumFields, err = strconv.Atoi(header[2]); err != nil {
		return nil, fmt.Errorf("dataset: bad field count: %w", err)
	}
	if d.NumFeatures, err = strconv.Atoi(header[3]); err != nil {
		return nil, fmt.Errorf("dataset: bad feature count: %w", err)
	}
	if len(header) != 4+d.NumFields+1 {
		return nil, fmt.Errorf("dataset: header has %d offsets, want %d", len(header)-4, d.NumFields+1)
	}
	d.FieldOffset = make([]int32, d.NumFields+1)
	for i := range d.FieldOffset {
		v, err := strconv.Atoi(header[4+i])
		if err != nil {
			return nil, fmt.Errorf("dataset: bad field offset %d: %w", i, err)
		}
		d.FieldOffset[i] = int32(v)
	}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Fields(text)
		if len(parts) != 1+d.NumFields {
			return nil, fmt.Errorf("dataset: line %d: %d columns, want %d", line, len(parts), 1+d.NumFields)
		}
		label, err := strconv.ParseFloat(parts[0], 32)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad label: %w", line, err)
		}
		for f := 0; f < d.NumFields; f++ {
			v, err := strconv.Atoi(parts[1+f])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad feature: %w", line, err)
			}
			if v < 0 || v >= d.NumFeatures {
				return nil, fmt.Errorf("dataset: line %d: feature %d out of range [0,%d)", line, v, d.NumFeatures)
			}
			d.Feats = append(d.Feats, FeatureID(v))
		}
		d.Samples = append(d.Samples, Sample{Label: float32(label)})
	}
	// The block is complete: point the samples at their rows.
	d.viewRows()
	return d, sc.Err()
}
