package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Parent indexes the enclosing span; -1 marks a root.
	Parent int `json:"parent"`
	// Op is the op the span belongs to; -1 marks set-up.
	Op int `json:"op"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced ops run the same code and pay one
// nil check per boundary.
type spanLog struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one and returns its index.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t0), End: -1, Parent: parent, Op: l.op})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.t0)
	l.open = l.open[:len(l.open)-1]
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. An unclosed span reads 0.
func (l *spanLog) selfTimes() []time.Duration {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		if s.End < s.Start {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].Start < l.spans[kids[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			c := l.spans[k]
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durations returns the named spans' durations in recording order.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// byOp sums the named spans' durations per op.
func (l *spanLog) byOp(names ...string) map[int]time.Duration {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[int]time.Duration)
	for _, s := range l.spans {
		if want[s.Name] && s.End >= s.Start {
			out[s.Op] += s.End - s.Start
		}
	}
	return out
}

// write stores the spans, one JSON object per line with its self time.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := l.selfTimes()
	for i, s := range l.spans {
		rec := struct {
			span
			ID     int           `json:"id"`
			SelfNS time.Duration `json:"self_ns"`
		}{s, i, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
