package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad hardens the dataset parser: arbitrary input must produce either
// a valid dataset or an error — never a panic, and never a dataset that
// violates its own invariants.
func FuzzLoad(f *testing.F) {
	f.Add("#hetgmp x 2 10 0 5 10\n1 3 7\n")
	f.Add("#hetgmp name 1 2 0 2\n0 1\n")
	f.Add("")
	f.Add("#hetgmp x 2 10 0 5\n")
	f.Add("#hetgmp x 2 10 0 5 10\n1 3\n")
	f.Add("junk\n1 2 3")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Load(strings.NewReader(input))
		if err != nil {
			return
		}
		// Parsed datasets must satisfy the core invariants.
		if len(d.FieldOffset) != d.NumFields+1 {
			t.Fatalf("field offsets %d for %d fields", len(d.FieldOffset), d.NumFields)
		}
		if err := d.CheckBlock(); err != nil {
			t.Fatal(err)
		}
		for i := range d.Samples {
			if len(d.Samples[i].Features) != d.NumFields {
				t.Fatalf("sample %d has %d features", i, len(d.Samples[i].Features))
			}
			for _, x := range d.Samples[i].Features {
				if x < 0 || int(x) >= d.NumFeatures {
					t.Fatalf("feature %d out of range", x)
				}
			}
		}
		// Valid datasets must round-trip.
		var buf bytes.Buffer
		if err := Save(&buf, d); err != nil {
			t.Fatalf("save of loaded dataset failed: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("reload failed: %v", err)
		}
	})
}
