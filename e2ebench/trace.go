package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// The tracer records spans around the benchmark's own calls into each
// module's public functions (no instrumentation inside the program).
// Spans carry name, start, end, parent and op id; they are kept in
// memory and written out once the run has ended. A span's self time is
// its duration minus the part of its interval its children cover.

type span struct {
	name       string
	parent     int32
	op         int64
	start, end int64 // ns since the tracer's epoch
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	base  int32 // id of spans[0]; spans before a reset are dropped
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id; a nil tracer records nothing
// and returns -1, so untraced code paths share the traced ones.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := t.base + int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: now, end: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if i := id - t.base; i >= 0 {
		t.spans[i].end = now
	}
	t.mu.Unlock()
}

// reset drops every span recorded so far (the set-up's), so the layer
// table covers the measured window only. Spans still open keep their
// ids; those that belong to the dropped set are ignored.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.base += int32(len(t.spans))
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// record adds a span whose interval was observed elsewhere (a receipt
// at a subscriber, timed from the publish that caused it).
func (t *tracer) record(name string, parent int32, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, op: op,
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// layerTimes holds the closed spans of one name.
type layerTimes struct {
	dur, self []float64 // µs
}

// summarize computes each span name's durations and self times.
func (t *tracer) summarize() map[string]*layerTimes {
	t.mu.Lock()
	spans, base := slices.Clone(t.spans), t.base
	t.mu.Unlock()
	children := map[int32][]int32{}
	for i, s := range spans {
		if s.parent >= base {
			children[s.parent-base] = append(children[s.parent-base], int32(i))
		}
	}
	out := map[string]*layerTimes{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		dur := s.end - s.start
		covered := coverage(spans, children[int32(i)], s.start, s.end)
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		lt.dur = append(lt.dur, float64(dur)/1e3)
		lt.self = append(lt.self, float64(dur-covered)/1e3)
	}
	return out
}

// coverage returns how much of [lo, hi] the given spans cover (their
// union, clipped to the interval).
func coverage(spans []span, ids []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		c := spans[id]
		if c.end < 0 {
			continue
		}
		a, b := max(c.start, lo), min(c.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write dumps every span as one tab-separated line: id, parent, op,
// name, start ns, end ns.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", t.base+int32(i), s.parent, s.op, s.name, s.start, s.end)
	}
	return bw.Flush()
}
