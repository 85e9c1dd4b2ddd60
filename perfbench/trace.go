package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer of the program: the layer's public
// function named by Name, run on behalf of request Req. Parent is the
// index of the enclosing span, or -1 for a request's root span.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	// Count is the number of operations the span covers (reads are
	// timed in runs, one span per run of consecutive reads); 1 otherwise.
	Count int `json:"count"`
	// Bytes is the size of the data the call decoded, encoded or wrote.
	Bytes int64 `json:"bytes,omitempty"`
	// Alloc is the heap bytes allocated during the call, for the spans
	// opened with beginAlloc.
	Alloc int64 `json:"alloc_bytes,omitempty"`
	alloc bool
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; they are written out after the run. A
// nil *tracer records nothing, so the same replay code runs traced and
// untraced.
type tracer struct {
	origin time.Time
	spans  []span
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Count: 1, Start: t.now()})
	return len(t.spans) - 1
}

// beginAlloc is begin for a span that also records heap allocation.
func (t *tracer) beginAlloc(name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	id := t.begin(name, req, parent)
	metrics.Read(t.allocs)
	t.spans[id].alloc = true
	t.spans[id].Alloc = -int64(t.allocs[0].Value.Uint64())
	t.spans[id].Start = t.now()
	return id
}

// end closes span id, recording the bytes it moved.
func (t *tracer) end(id int, bytes int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	s.Bytes = bytes
	if s.alloc {
		metrics.Read(t.allocs)
		s.Alloc += int64(t.allocs[0].Value.Uint64())
	}
}

// setCount records how many operations span id covered.
func (t *tracer) setCount(id, n int) {
	if t != nil {
		t.spans[id].Count = n
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other and may run past their parent; only the union of their
// intervals clipped to the parent counts.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		self[i] = p.dur() - covered(p.Start, p.End, kids[i])
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
