// Package dataset provides the click-through-rate training data substrate
// for the HET-GMP reproduction.
//
// The paper evaluates on Avazu, Criteo and a proprietary Tencent dataset
// ("Company", Table 1). None of the raw data ships with this repository, so
// the package generates synthetic datasets whose *shape* matches what the
// paper's algorithms are sensitive to:
//
//   - the field structure of each dataset (22 / 26 / 43 categorical fields),
//   - highly skewed, power-law feature popularity (Section 4, "Skewness"),
//   - co-access locality: features cluster into groups that co-occur within
//     the same samples (Section 4, "Locality", Figure 3),
//   - a planted logistic ground truth so models genuinely learn and the
//     AUC-vs-time curves of Figure 7 are meaningful.
//
// A Scale knob shrinks sample and vocabulary counts proportionally so the
// full experiment suite runs on one machine.
package dataset

import (
	"fmt"
	"math"

	"hetgmp/internal/xrand"
)

// FeatureID identifies one row of the global embedding table. IDs are dense
// in [0, NumFeatures) across all fields.
type FeatureID = int32

// Sample is one training example: one categorical feature per field plus a
// binary click label.
type Sample struct {
	Features []FeatureID
	Label    float32
}

// Dataset is an in-memory CTR dataset.
type Dataset struct {
	Name        string
	NumFields   int
	NumFeatures int
	// FieldOffset[f] is the first feature ID belonging to field f;
	// FieldOffset[NumFields] == NumFeatures.
	FieldOffset []int32
	// Feats is the one feature block: sample i's features are
	// Feats[i*NumFields : (i+1)*NumFields]. Every constructor builds it, and
	// Samples[i].Features is that row as a view capped at its end, so the
	// samples exist once in memory (CheckBlock).
	Feats   []FeatureID
	Samples []Sample
}

// Row returns sample i's features: its row of Feats.
func (d *Dataset) Row(i int) []FeatureID {
	return d.Feats[i*d.NumFields : (i+1)*d.NumFields]
}

// viewRows points every Samples[i].Features at its row of Feats, capped so
// an append to one sample cannot overwrite the next.
func (d *Dataset) viewRows() {
	f := d.NumFields
	for i := range d.Samples {
		d.Samples[i].Features = d.Feats[i*f : (i+1)*f : (i+1)*f]
	}
}

// Pack copies every sample's features into one new block, sets Feats to it
// and points the samples at their rows. It is for datasets built by hand:
// every constructor returns a packed dataset. It panics if a sample does
// not have NumFields features.
func (d *Dataset) Pack() *Dataset {
	f := d.NumFields
	d.Feats = make([]FeatureID, len(d.Samples)*f)
	for i := range d.Samples {
		if n := len(d.Samples[i].Features); n != f {
			panic(fmt.Sprintf("dataset: Pack: sample %d has %d features, want %d", i, n, f))
		}
		copy(d.Feats[i*f:], d.Samples[i].Features)
	}
	d.viewRows()
	return d
}

// CheckBlock reports whether d holds its samples once: Feats has one row of
// NumFields features per sample, and every Samples[i].Features is row i of
// it, capped at the row's end. The error names the first sample that is
// not such a view.
func (d *Dataset) CheckBlock() error {
	f := d.NumFields
	if len(d.Feats) != len(d.Samples)*f {
		return fmt.Errorf("dataset %s: feature block holds %d ids, want %d samples × %d fields",
			d.Name, len(d.Feats), len(d.Samples), f)
	}
	for i := range d.Samples {
		v := d.Samples[i].Features
		if len(v) != f || cap(v) != f || (f > 0 && &v[0] != &d.Feats[i*f]) {
			return fmt.Errorf("dataset %s: sample %d's features are not a capped view of row %d of Feats",
				d.Name, i, i)
		}
	}
	return nil
}

// FieldOf returns the field index owning feature id.
func (d *Dataset) FieldOf(id FeatureID) int {
	lo, hi := 0, d.NumFields
	for lo < hi {
		mid := (lo + hi) / 2
		if d.FieldOffset[mid+1] <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Stats summarises a dataset in the format of the paper's Table 1.
type Stats struct {
	Name        string
	NumSamples  int
	NumFeatures int
	NumFields   int
	PosRate     float64
}

// Stats computes summary statistics.
func (d *Dataset) Stats() Stats {
	var pos int
	for i := range d.Samples {
		if d.Samples[i].Label > 0.5 {
			pos++
		}
	}
	rate := 0.0
	if len(d.Samples) > 0 {
		rate = float64(pos) / float64(len(d.Samples))
	}
	return Stats{
		Name:        d.Name,
		NumSamples:  len(d.Samples),
		NumFeatures: d.NumFeatures,
		NumFields:   d.NumFields,
		PosRate:     rate,
	}
}

// Split partitions the dataset into train and test subsets. frac is the
// training fraction in (0, 1]. The split is by position (the generator
// already shuffles), so it is deterministic.
func (d *Dataset) Split(frac float64) (train, test *Dataset) {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("dataset: Split fraction %v out of (0,1]", frac))
	}
	// Both halves view d's block; the train half is capped so appending to
	// it cannot overwrite the test half.
	n := int(float64(len(d.Samples)) * frac)
	e := n * d.NumFields
	train = &Dataset{Name: d.Name + "-train", NumFields: d.NumFields,
		NumFeatures: d.NumFeatures, FieldOffset: d.FieldOffset,
		Feats: d.Feats[:e:e], Samples: d.Samples[:n:n]}
	test = &Dataset{Name: d.Name + "-test", NumFields: d.NumFields,
		NumFeatures: d.NumFeatures, FieldOffset: d.FieldOffset,
		Feats: d.Feats[e:], Samples: d.Samples[n:]}
	return train, test
}

// Config controls synthetic dataset generation.
type Config struct {
	Name       string
	NumFields  int
	NumSamples int
	// NumFeatures is the total vocabulary size summed over all fields.
	NumFeatures int
	// ZipfExponent controls feature popularity skew within each field's
	// cluster segment. CTR logs typically show exponents near 1.
	ZipfExponent float64
	// EscapeZipf is the skew of *globally drawn* (cluster-escaping) values.
	// Real CTR escape traffic lands on globally popular features (big
	// advertisers, common devices), so it is typically more concentrated
	// than within-segment popularity. Zero falls back to ZipfExponent.
	EscapeZipf float64
	// NumClusters is the number of latent co-access clusters. Each sample
	// belongs to one cluster and draws most of its features from that
	// cluster's slice of every field, which produces the diagonal structure
	// of the paper's Figure 3.
	NumClusters int
	// ClusterNoise is the probability that a field value escapes the
	// sample's cluster and is drawn from the whole field instead. Zero
	// yields perfectly block-diagonal co-occurrence; 1 removes locality.
	ClusterNoise float64
	// SuperClusters groups clusters into a second locality level: when a
	// value escapes its cluster, with probability SuperNoise it lands in a
	// sibling cluster of the same super-cluster instead of the global
	// vocabulary. This two-level structure is what makes topology-aware
	// (hierarchical) partitioning profitable (paper Figure 9): same-super
	// clusters want to share a machine. Zero disables the second level.
	SuperClusters int
	// SuperNoise is the fraction of cluster escapes redirected to the
	// sample's super-cluster (ignored when SuperClusters is 0).
	SuperNoise float64
	// FieldSkew shapes how the vocabulary divides across fields. Real CTR
	// data concentrates most features in a few ID-like fields; vocabulary
	// share of field f is proportional to (f+1)^-FieldSkew.
	FieldSkew float64
	Seed      uint64
}

// Validate reports whether the configuration is generatable.
func (c *Config) Validate() error {
	switch {
	case c.NumFields <= 0:
		return fmt.Errorf("dataset: NumFields must be positive, got %d", c.NumFields)
	case c.NumSamples <= 0:
		return fmt.Errorf("dataset: NumSamples must be positive, got %d", c.NumSamples)
	case c.NumFeatures < c.NumFields:
		return fmt.Errorf("dataset: NumFeatures (%d) must be at least NumFields (%d)",
			c.NumFeatures, c.NumFields)
	case c.ZipfExponent < 0:
		return fmt.Errorf("dataset: ZipfExponent must be non-negative, got %g", c.ZipfExponent)
	case c.NumClusters <= 0:
		return fmt.Errorf("dataset: NumClusters must be positive, got %d", c.NumClusters)
	case c.ClusterNoise < 0 || c.ClusterNoise > 1:
		return fmt.Errorf("dataset: ClusterNoise must be in [0,1], got %g", c.ClusterNoise)
	case c.SuperClusters < 0 || c.SuperClusters > c.NumClusters:
		return fmt.Errorf("dataset: SuperClusters must be in [0, NumClusters], got %d", c.SuperClusters)
	case c.SuperNoise < 0 || c.SuperNoise > 1:
		return fmt.Errorf("dataset: SuperNoise must be in [0,1], got %g", c.SuperNoise)
	}
	return nil
}

// Generate synthesises a dataset according to cfg. Generation is
// deterministic for a fixed config.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ 0x5eed5eed5eed5eed)

	d := &Dataset{
		Name:      cfg.Name,
		NumFields: cfg.NumFields,
	}

	// Divide the vocabulary across fields with power-law shares, at least
	// two features per field so every field carries signal.
	shares := make([]float64, cfg.NumFields)
	var tot float64
	for f := range shares {
		shares[f] = math.Pow(float64(f+1), -cfg.FieldSkew)
		tot += shares[f]
	}
	d.FieldOffset = make([]int32, cfg.NumFields+1)
	remaining := cfg.NumFeatures - 2*cfg.NumFields
	if remaining < 0 {
		remaining = 0
	}
	var off int32
	for f := 0; f < cfg.NumFields; f++ {
		d.FieldOffset[f] = off
		size := 2 + int(float64(remaining)*shares[f]/tot)
		off += int32(size)
	}
	d.FieldOffset[cfg.NumFields] = off
	d.NumFeatures = int(off)

	// Per-field, per-cluster samplers. Each field's vocabulary is sliced
	// into NumClusters contiguous segments; a segment may be smaller than
	// the cluster count for tiny fields, in which case clusters share.
	type fieldSampler struct {
		base     int32
		size     int32
		segments []segment
		global   *xrand.Zipf
	}
	escapeZipf := cfg.EscapeZipf
	if escapeZipf == 0 {
		escapeZipf = cfg.ZipfExponent
	}
	samplers := make([]fieldSampler, cfg.NumFields)
	for f := 0; f < cfg.NumFields; f++ {
		base := d.FieldOffset[f]
		size := d.FieldOffset[f+1] - base
		fs := fieldSampler{base: base, size: size, global: xrand.NewZipf(int(size), escapeZipf)}
		fs.segments = makeSegments(int(size), cfg.NumClusters, cfg.ZipfExponent)
		samplers[f] = fs
	}

	// Planted ground truth: a hidden logistic model over features plus a
	// cluster-level bias. Feature weights shrink with the field's size so
	// large ID fields contribute noisy, memorisable signal much like real
	// CTR data.
	featWeight := make([]float32, d.NumFeatures)
	wrng := xrand.New(cfg.Seed ^ 0x77aa77aa77aa77aa)
	for f := 0; f < cfg.NumFields; f++ {
		scale := float32(1.2 / math.Sqrt(float64(cfg.NumFields)))
		for id := d.FieldOffset[f]; id < d.FieldOffset[f+1]; id++ {
			featWeight[id] = float32(wrng.NormFloat64()) * scale
		}
	}
	clusterBias := make([]float32, cfg.NumClusters)
	for c := range clusterBias {
		clusterBias[c] = float32(wrng.NormFloat64()) * 0.5
	}
	// Global intercept targets a realistic positive rate (~20-25%).
	const intercept = -1.2

	// clustersPerSuper maps a cluster to its super-cluster's sibling range.
	clustersPerSuper := 0
	if cfg.SuperClusters > 0 {
		clustersPerSuper = (cfg.NumClusters + cfg.SuperClusters - 1) / cfg.SuperClusters
	}

	d.Samples = make([]Sample, cfg.NumSamples)
	d.Feats = make([]FeatureID, cfg.NumSamples*cfg.NumFields)
	d.viewRows()
	for i := 0; i < cfg.NumSamples; i++ {
		cluster := rng.Intn(cfg.NumClusters)
		row := d.Samples[i].Features
		logit := intercept + float64(clusterBias[cluster])
		for f := 0; f < cfg.NumFields; f++ {
			fs := &samplers[f]
			var id FeatureID
			if cfg.ClusterNoise < 1 && rng.Float64() >= cfg.ClusterNoise {
				seg := fs.segments[cluster%len(fs.segments)]
				id = fs.base + seg.start + int32(seg.zipf.Sample(rng))
			} else if clustersPerSuper > 0 && rng.Float64() < cfg.SuperNoise {
				// Escape to a sibling cluster within the super-cluster.
				super := cluster / clustersPerSuper
				lo := super * clustersPerSuper
				hi := lo + clustersPerSuper
				if hi > cfg.NumClusters {
					hi = cfg.NumClusters
				}
				sib := lo + rng.Intn(hi-lo)
				seg := fs.segments[sib%len(fs.segments)]
				id = fs.base + seg.start + int32(seg.zipf.Sample(rng))
			} else {
				id = fs.base + int32(fs.global.Sample(rng))
			}
			row[f] = id
			logit += float64(featWeight[id])
		}
		label := float32(0)
		if rng.Float64() < 1/(1+math.Exp(-logit)) {
			label = 1
		}
		d.Samples[i].Label = label
	}
	return d, nil
}

type segment struct {
	start int32
	zipf  *xrand.Zipf
}

// makeSegments slices a vocabulary of size n into k contiguous segments,
// each with its own Zipf sampler. When n < k, segments wrap so every cluster
// index maps to a valid segment.
func makeSegments(n, k int, exponent float64) []segment {
	if k > n {
		k = n
	}
	segs := make([]segment, k)
	per := n / k
	rem := n % k
	var start int32
	for s := 0; s < k; s++ {
		size := per
		if s < rem {
			size++
		}
		if size == 0 {
			size = 1
		}
		segs[s] = segment{start: start, zipf: xrand.NewZipf(size, exponent)}
		start += int32(size)
		if int(start) >= n {
			start = 0
		}
	}
	return segs
}

// FeatureFrequencies counts how often each feature appears across the
// dataset; the partitioner and the clock-normalisation logic both consume
// these counts.
func (d *Dataset) FeatureFrequencies() []int32 {
	freq := make([]int32, d.NumFeatures)
	for _, f := range d.Feats {
		freq[f]++
	}
	return freq
}

// Batches invokes fn for consecutive mini-batches of size batchSize,
// covering every sample exactly once. The final batch may be short.
func (d *Dataset) Batches(batchSize int, fn func(batch []Sample)) {
	if batchSize <= 0 {
		panic("dataset: Batches called with batchSize <= 0")
	}
	for i := 0; i < len(d.Samples); i += batchSize {
		j := i + batchSize
		if j > len(d.Samples) {
			j = len(d.Samples)
		}
		fn(d.Samples[i:j])
	}
}
