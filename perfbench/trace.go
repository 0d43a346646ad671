package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one cell or job
// share its ID; Parent links a call to the span that caused it.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Cell   string    `json:"cell"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths stay span-free.
type tracer struct {
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span; call end on the result when the call returns.
func (t *tracer) begin(name, cell string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Cell: cell, Start: time.Now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	s.ID = len(t.spans)
	t.mu.Unlock()
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = time.Now()
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of its
// interval that its child spans cover, keyed by span ID.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for i, k := range kids {
		s, e := k.Start, k.End
		if s.Before(p.Start) {
			s = p.Start
		}
		if e.After(p.End) {
			e = p.End
		}
		if !e.After(s) {
			continue
		}
		if i == 0 || s.After(curE) {
			if !curE.IsZero() {
				total += curE.Sub(curS)
			}
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	if !curE.IsZero() {
		total += curE.Sub(curS)
	}
	return total
}

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// spanMs returns the durations of spans in milliseconds.
func spanMs(ss []*span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(time.Millisecond)
	}
	return out
}
