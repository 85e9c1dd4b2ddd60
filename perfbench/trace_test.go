package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A parent whose children overlap each other, leave gaps, and run past
// its end: its self time is its duration minus the union of the child
// intervals clipped to it.
func TestSelfTimeWithPartlyCoveringChildren(t *testing.T) {
	spans := []span{
		{Name: "batch", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 130}, // runs past the parent
		{Name: "d", Parent: 1, Start: 12, End: 18},  // a's child
	}
	self := selfTimes(spans)
	// Covered by children of batch: [10,50) and [90,100) = 50.
	want := []int64{50, 20 - 6, 30, 40, 6}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestSelfTimeOfChildlessAndFullyCoveredSpans(t *testing.T) {
	spans := []span{
		{Name: "leaf", Parent: -1, Start: 5, End: 9},
		{Name: "root", Parent: -1, Start: 0, End: 10},
		{Name: "all", Parent: 1, Start: 0, End: 10},
		{Name: "dup", Parent: 1, Start: 2, End: 8},
	}
	self := selfTimes(spans)
	if self[0] != 4 || self[1] != 0 || self[2] != 10 || self[3] != 6 {
		t.Errorf("self times = %v, want [4 0 10 6]", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, -1)
	tr.end(id, 5)
	tr.setCount(tr.beginAlloc("y", 1, id), 3)
	if id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
}

func TestTracerSpansCarryRequestAndParent(t *testing.T) {
	tr := newTracer()
	root := tr.begin("batch", 7, -1)
	child := tr.beginAlloc("engine.process", 7, root)
	buf := make([]byte, 1<<16)
	tr.end(child, int64(len(buf)))
	tr.end(root, 0)
	s := tr.spans
	if len(s) != 2 || s[1].Parent != root || s[1].Req != 7 || s[1].Bytes != 1<<16 {
		t.Fatalf("spans = %+v", s)
	}
	if s[1].Start < s[0].Start || s[1].End > s[0].End || s[1].Alloc < 0 {
		t.Errorf("child span %+v does not nest in %+v", s[1], s[0])
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "batch" || first.Req != 7 || first.Parent != -1 {
		t.Errorf("first written span = %+v", first)
	}
}
