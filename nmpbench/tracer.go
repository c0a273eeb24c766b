package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call from the harness into the program.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at the root
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.EndS - s.StartS }

// tracer keeps spans in memory, one per call, nested by a stack. The
// harness is single-threaded, so no locking is needed. A nil *tracer
// records nothing, which is how the end-to-end runs measure untraced.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartS: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	t.spans[id].EndS = t.now()
	t.open = t.open[:len(t.open)-1]
}

// last returns the duration of the most recent span called name.
func (t *tracer) last(name string) float64 {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return t.spans[i].dur()
		}
	}
	panic(fmt.Sprintf("tracer: no span %q", name))
}

// write emits every span as one JSON document.
func (t *tracer) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.spans)
}

// table prints, per span name under the spans from index from on, the
// call count, the total wall time and the self time (the total minus the
// time its child spans cover).
func (t *tracer) table(w io.Writer, from int) {
	type row struct {
		name        string
		calls       int
		total, self float64
		first       int
	}
	rows := map[string]*row{}
	child := make([]float64, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p >= from {
			child[p] += t.spans[i].dur()
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name, first: i}
			rows[s.Name] = r
		}
		r.calls++
		r.total += s.dur()
		r.self += s.dur() - child[i]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].first < list[b].first })
	fmt.Fprintf(w, "%-48s %6s %10s %10s\n", "span", "calls", "total_s", "self_s")
	for _, r := range list {
		fmt.Fprintf(w, "%-48s %6d %10.4f %10.4f\n", r.name, r.calls, r.total, r.self)
	}
}
