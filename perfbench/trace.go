package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was created.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span under parent and returns its ID.
func (t *tracer) start(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// do wraps fn in a span and returns the span's ID.
func (t *tracer) do(parent int, name string, fn func()) int {
	id := t.start(parent, name)
	fn()
	t.end(id)
	return id
}

// dur returns a closed span's duration in seconds.
func (t *tracer) dur(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// selfTimes returns, by span name, the self time in seconds of root and of
// every span below it: a span's duration minus the part of its interval that
// its children cover.
func (t *tracer) selfTimes(root int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[string]float64)
	var walk func(s span)
	walk = func(s span) {
		out[s.Name] += float64(s.End-s.Start-covered(kids[s.ID])) / 1e9
		for _, c := range kids[s.ID] {
			walk(c)
		}
	}
	walk(t.spans[root-1])
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := append([]span(nil), ss...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	var total int64
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
