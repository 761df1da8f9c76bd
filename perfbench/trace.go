package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share its op
// index; Parent is the index of the enclosing span (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use, so batch workers can record their own slots.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the tracer clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, op, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

// end closes the span id.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// duration returns the length of the closed span id in nanoseconds.
func (t *tracer) duration(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// add records a span whose bounds were measured elsewhere, such as the
// server-side part of an HTTP request.
func (t *tracer) add(name string, op, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// layerTimes is the per-name aggregate of a trace.
type layerTimes struct {
	Calls   int
	TotalNs int64 // sum of span durations
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Children may
// overlap (batch slots run side by side), so the union is taken, not the
// sum.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// summarize aggregates the spans by name.
func (t *tracer) summarize() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*layerTimes)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.TotalNs += s.End - s.Start
	}
	return out
}

// opRemainders returns, for every span named root, its op index, its
// duration and its unattributed remainder (self time).
func (t *tracer) opRemainders(root string) []opRemainder {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var out []opRemainder
	for i, s := range t.spans {
		if s.Name == root {
			out = append(out, opRemainder{Op: s.Op, TotalNs: s.End - s.Start, UnattributedNs: self[i]})
		}
	}
	return out
}

type opRemainder struct {
	Op             int   `json:"op"`
	TotalNs        int64 `json:"total_ns"`
	UnattributedNs int64 `json:"unattributed_ns"`
}

// write stores the spans and the per-op remainders as one JSON file.
func (t *tracer) write(path, workload string, seed int64, root string) error {
	ops := t.opRemainders(root)
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Ops      []opRemainder `json:"ops"`
		Spans    []span        `json:"spans"`
	}{workload, seed, ops, t.spans}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
