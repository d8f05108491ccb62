package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadLibSVM parses the libsvm-style text encoding that public CTR
// preprocessing pipelines (including the standard Criteo/Avazu recipes)
// commonly emit:
//
//	<label> <field>:<feature>[:<value>] ...
//
// One line per sample. Fields are 0-based and every sample must mention
// each field exactly once (categorical CTR data is one feature per field);
// the optional :<value> suffix is accepted and ignored (CTR embeddings are
// value-free lookups). Feature IDs are arbitrary non-negative integers in
// a per-field namespace; LoadLibSVM densifies them into the repository's
// global contiguous ID space.
func LoadLibSVM(r io.Reader, numFields int) (*Dataset, error) {
	if numFields <= 0 {
		return nil, fmt.Errorf("dataset: LoadLibSVM needs a positive field count, got %d", numFields)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	// First pass over lines (buffered): collect raw IDs per field.
	type rawSample struct {
		label float32
		feats []int64 // per field, raw ID
	}
	var raws []rawSample
	vocab := make([]map[int64]FeatureID, numFields)
	for f := range vocab {
		vocab[f] = make(map[int64]FeatureID)
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Fields(text)
		if len(parts) != 1+numFields {
			return nil, fmt.Errorf("dataset: line %d: %d columns, want label + %d fields",
				line, len(parts), numFields)
		}
		label, err := strconv.ParseFloat(parts[0], 32)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad label %q: %w", line, parts[0], err)
		}
		rs := rawSample{label: float32(label), feats: make([]int64, numFields)}
		seen := make([]bool, numFields)
		for _, tok := range parts[1:] {
			fieldStr, rest, ok := strings.Cut(tok, ":")
			if !ok {
				return nil, fmt.Errorf("dataset: line %d: token %q lacks field:feature form", line, tok)
			}
			featStr, _, _ := strings.Cut(rest, ":") // optional value ignored
			field, err := strconv.Atoi(fieldStr)
			if err != nil || field < 0 || field >= numFields {
				return nil, fmt.Errorf("dataset: line %d: bad field %q", line, fieldStr)
			}
			if seen[field] {
				return nil, fmt.Errorf("dataset: line %d: field %d repeated", line, field)
			}
			feat, err := strconv.ParseInt(featStr, 10, 64)
			if err != nil || feat < 0 {
				return nil, fmt.Errorf("dataset: line %d: bad feature %q", line, featStr)
			}
			seen[field] = true
			rs.feats[field] = feat
			if _, ok := vocab[field][feat]; !ok {
				vocab[field][feat] = FeatureID(len(vocab[field]))
			}
		}
		for f, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("dataset: line %d: field %d missing", line, f)
			}
		}
		raws = append(raws, rs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("dataset: empty libsvm input")
	}

	// Densify: lay fields out contiguously in the global ID space.
	d := &Dataset{
		Name:        "libsvm",
		NumFields:   numFields,
		FieldOffset: make([]int32, numFields+1),
	}
	var off int32
	for f := 0; f < numFields; f++ {
		d.FieldOffset[f] = off
		off += int32(len(vocab[f]))
	}
	d.FieldOffset[numFields] = off
	d.NumFeatures = int(off)

	d.Samples = make([]Sample, len(raws))
	d.Feats = make([]FeatureID, len(raws)*numFields)
	d.viewRows()
	for i, rs := range raws {
		row := d.Samples[i].Features
		for f := 0; f < numFields; f++ {
			row[f] = d.FieldOffset[f] + vocab[f][rs.feats[f]]
		}
		d.Samples[i].Label = rs.label
	}
	return d, nil
}
