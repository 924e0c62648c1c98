package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the tracer was made;
// Parent is the index of the enclosing span, -1 for a root ("op") span.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site. Spans are
// opened and closed on the benchmark's main goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotal sums duration, self time and count over the spans of one name;
// inOp says whether they are ops or parts of ops.
type spanTotal struct {
	count       int
	total, self int64
	inOp        bool
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.count++
		t.total += s.End - s.Start
		t.self += self[i]
		t.inOp = s.Parent >= 0 || s.Name == "op"
		out[s.Name] = t
	}
	return out
}

// meanMs is a span name's mean duration in milliseconds (0 when absent).
func (t spanTotal) meanMs() float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.total) / float64(t.count) / 1e6
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
