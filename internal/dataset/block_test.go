package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// constructed returns a dataset from every constructor, each at least two
// samples long.
func constructed(t *testing.T) map[string]*Dataset {
	t.Helper()
	cfg := smallConfig()
	cfg.NumSamples = 200
	gen, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test := gen.Split(0.9)
	var buf bytes.Buffer
	if err := Save(&buf, gen); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	svm, err := LoadLibSVM(strings.NewReader(libsvmSample), 2)
	if err != nil {
		t.Fatal(err)
	}
	packed := (&Dataset{Name: "hand", NumFields: 2, NumFeatures: 4, Samples: []Sample{
		{Features: []FeatureID{0, 2}}, {Features: []FeatureID{1, 3}, Label: 1},
	}}).Pack()
	return map[string]*Dataset{
		"Generate": gen, "Split train": train, "Split test": test,
		"Load": loaded, "LoadLibSVM": svm, "Pack": packed,
	}
}

// TestConstructorsViewOneBlock pins the layout every constructor returns:
// one feature block, and every sample's features a capped view of its row.
func TestConstructorsViewOneBlock(t *testing.T) {
	for name, d := range constructed(t) {
		if err := d.CheckBlock(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for i := range d.Samples {
			if got, want := d.Row(i), d.Samples[i].Features; &got[0] != &want[0] || len(got) != len(want) {
				t.Fatalf("%s: Row(%d) is not sample %d's features", name, i, i)
			}
		}
	}
}

// TestSplitHalvesShareTheBlock pins that Split copies nothing: the halves'
// blocks are consecutive ranges of the parent's.
func TestSplitHalvesShareTheBlock(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(0.75)
	e := len(train.Samples) * d.NumFields
	if &train.Feats[0] != &d.Feats[0] || &test.Feats[0] != &d.Feats[e] ||
		len(train.Feats)+len(test.Feats) != len(d.Feats) {
		t.Fatal("Split halves are not consecutive ranges of the parent's block")
	}
}

// TestAppendToSampleLeavesNeighbour is the aliasing regression: a view that
// ran to the end of the block let an append to one sample overwrite the
// next sample's first feature.
func TestAppendToSampleLeavesNeighbour(t *testing.T) {
	for name, d := range constructed(t) {
		next := d.Samples[1].Features[0]
		grown := append(d.Samples[0].Features, next+1)
		if d.Samples[1].Features[0] != next {
			t.Errorf("%s: appending to sample 0 overwrote sample 1's first feature", name)
		}
		if &grown[0] == &d.Feats[0] {
			t.Errorf("%s: append to a full view reused the block", name)
		}
	}
	// A Split train half is capped at the test half too.
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(0.5)
	first := test.Feats[0]
	_ = append(train.Feats, first+1)
	_ = append(train.Samples, Sample{})
	if test.Feats[0] != first || &test.Samples[0].Features[0] != &test.Feats[0] {
		t.Error("appending to the train half overwrote the test half")
	}
}

func TestCheckBlockNamesFirstBadSample(t *testing.T) {
	d := (&Dataset{Name: "hand", NumFields: 2, NumFeatures: 4, Samples: []Sample{
		{Features: []FeatureID{0, 2}}, {Features: []FeatureID{1, 3}}, {Features: []FeatureID{1, 2}},
	}}).Pack()
	d.Samples[1].Features = []FeatureID{1, 3} // equal ids, but a copy
	err := d.CheckBlock()
	if err == nil || !strings.Contains(err.Error(), "sample 1's") {
		t.Fatalf("CheckBlock on a copied sample: %v, want an error naming sample 1", err)
	}
	d.Pack()
	d.Samples[0].Features = d.Feats[0:2] // uncapped view
	if err := d.CheckBlock(); err == nil || !strings.Contains(err.Error(), "sample 0's") {
		t.Fatalf("CheckBlock on an uncapped view: %v, want an error naming sample 0", err)
	}
	d.Pack()
	d.Feats = d.Feats[:5]
	if err := d.CheckBlock(); err == nil {
		t.Fatal("CheckBlock accepted a block one id short")
	}
	unpacked := &Dataset{Name: "hand", NumFields: 2, Samples: []Sample{{Features: []FeatureID{0, 1}}}}
	if err := unpacked.CheckBlock(); err == nil {
		t.Fatal("CheckBlock accepted a dataset with no block")
	}
}

func TestPackPanicsOnShortSample(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "sample 1 has 1") {
			t.Fatalf("Pack on a short sample: recovered %v", r)
		}
	}()
	(&Dataset{NumFields: 2, Samples: []Sample{
		{Features: []FeatureID{0, 1}}, {Features: []FeatureID{0}},
	}}).Pack()
}
