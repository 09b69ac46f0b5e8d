package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share a
// trace ID; Parent is 0 for an operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name and returns f's error. f receives
// the span's ID so it can open child spans.
func (tr *tracer) do(trace, parent int64, name string, f func(id int64) error) error {
	tr.mu.Lock()
	tr.next++
	id := tr.next
	tr.mu.Unlock()
	start := time.Since(tr.t0)
	err := f(id)
	end := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(start), End: int64(end)})
	tr.mu.Unlock()
	return err
}

// durations returns the durations of every span named name, in ms.
func (tr *tracer) durations(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerTime is the time a span name accounts for across a run.
type layerTime struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64 // total minus the time its child spans cover
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals inside it.
func (tr *tracer) selfTimes() []layerTime {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range tr.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns how much of parent's interval the kids' intervals
// cover, counting overlaps once.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// write emits every span as one JSON object per line.
func (tr *tracer) write(w io.Writer) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return bw.Flush()
}
