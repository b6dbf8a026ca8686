package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; parent is the index of the
// enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	RID    int64  `json:"rid"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; they are written out once, when the
// benchmark ends, so recording costs a lock and an append. A nil
// *tracer records nothing, which is how untraced phases run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, rid int64) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, RID: rid})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once, and a child
// running past its parent counts only inside the parent). Unclosed spans
// get zero.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			cs, ce := spans[c].Start, spans[c].End
			if ce < cs {
				continue
			}
			cs, ce = max(cs, s.Start), min(ce, s.End)
			if ce > cs {
				ivs = append(ivs, [2]int64{cs, ce})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curS, curE int64
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curS, curE, open = iv[0], iv[1], true
			case iv[0] <= curE:
				curE = max(curE, iv[1])
			default:
				covered += curE - curS
				curS, curE = iv[0], iv[1]
			}
		}
		if open {
			covered += curE - curS
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeTrace writes the run context and then one JSON line per span,
// with the span's index as its id.
func writeTrace(path string, ctx runContext, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	type line struct {
		ID int `json:"id"`
		span
	}
	for i, s := range spans {
		if err := enc.Encode(line{ID: i, span: s}); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
