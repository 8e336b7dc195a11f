package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer. Parent is the ID of the span that caused it (0 for a
// root); Count is the number of operations the interval covered, so a
// drill's cost per operation is its duration divided by Count.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
}

func (s span) durNs() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays nothing for the call sites.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

// end closes span id, recording how many operations it covered.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	s.Count = count
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfNs returns each span's self time: its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfNs(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.durNs() - covered
	}
	return self
}

// selfByName sums self time over the spans sharing a name.
func selfByName(spans []span) map[string]int64 {
	self := selfNs(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
