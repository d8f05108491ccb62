package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "a", Start: 20, End: 50},  // overlaps span 1: covered once
		{ID: 3, Parent: 0, Name: "b", Start: 90, End: 120}, // spills past the parent: clipped
		{ID: 4, Parent: 2, Name: "c", Start: 25, End: 35},  // a grandchild covers nothing of run
		{ID: 5, Parent: noParent, Name: "other", Start: 0, End: 100},
	}
	want := []int64{100 - (40 + 10), 20, 30 - 10, 30, 10, 100}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{5, 10}}, 5},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {9, 12}}, 12},
		{[][2]int64{{0, 5}, {5, 7}}, 7},
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestTracerKeepsParentsAndWritesJSON(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("root", noParent)
	tr.leaf("leaf", root, tr.now(), 7)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != "w" || len(got.Spans) != 2 {
		t.Fatalf("wrote %+v", got)
	}
	leaf := got.Spans[1]
	if leaf.Parent != root || leaf.Work != 7 || leaf.Start < got.Spans[0].Start || leaf.End > got.Spans[0].End {
		t.Errorf("leaf %+v does not lie in root %+v", leaf, got.Spans[0])
	}
	tree := index(got.Spans)
	if c := tree[root]["leaf"]; len(c) != 1 || c.work() != 7 {
		t.Errorf("index lost the leaf: %v", tree)
	}
}
