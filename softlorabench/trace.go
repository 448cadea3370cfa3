package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program. Spans of one
// operation (an uplink, a CheckBatch call) share a trace id; parent links a
// stage span to the span that caused it.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Parent int32  `json:"parent"` // index into the tracer's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"` // heap objects allocated inside the span

	allocs0 uint64 // heap counter at begin
}

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends, so recording costs two clock reads and two heap
// counter reads per span.
type tracer struct {
	epoch  time.Time
	allocs *heapAllocs
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), allocs: newHeapAllocs(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id; on a nil tracer it records
// nothing and returns -1. The span slot is appended first, so a growth of
// the span slice is charged to the enclosing span, and the heap counter is
// read before the clock so that the counter read stays outside the
// duration.
func (t *tracer) begin(name string, trace int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent})
	s := &t.spans[id]
	s.allocs0 = t.allocs.read()
	s.Start = int64(time.Since(t.epoch))
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	a := t.allocs.read()
	s := &t.spans[id]
	s.End = end
	s.Allocs = a - s.allocs0
}

// layerTotals is the per-name aggregate of a trace.
type layerTotals struct {
	Self   time.Duration // span durations minus the time child spans cover
	Allocs uint64        // allocations not attributed to a child span
}

// totals aggregates self time and allocations per span name. A span's self
// time is its duration minus the union of its children's intervals; its
// allocations exclude its children's.
func (t *tracer) totals() map[string]*layerTotals {
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		dur := time.Duration(s.End - s.Start)
		covered, childAllocs := childCover(t.spans, children[int32(i)])
		lt.Self += dur - covered
		if s.Allocs >= childAllocs {
			lt.Allocs += s.Allocs - childAllocs
		}
	}
	return out
}

// childCover returns how much time the union of the given spans covers, and
// the allocations they hold.
func childCover(spans []span, ids []int32) (time.Duration, uint64) {
	if len(ids) == 0 {
		return 0, 0
	}
	iv := make([][2]int64, len(ids))
	var allocs uint64
	for i, id := range ids {
		iv[i] = [2]int64{spans[id].Start, spans[id].End}
		allocs += spans[id].Allocs
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	covered += curHi - curLo
	return time.Duration(covered), allocs
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
