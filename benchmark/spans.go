package benchmark

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded around the call by the
// benchmark (not inside the program): its layer-qualified name, start
// and end, the span that caused it, and the operation it belongs to.
type span struct {
	name       string
	op         int64
	parent     int32 // -1 for an operation's root
	track      int   // timeline row: the goroutine that made the call
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens the root span of a new operation.
func (t *tracer) root(name string, track int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.spans = append(t.spans, span{name: name, op: t.ops, parent: -1, track: track, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

// child opens a span caused by parent, in parent's operation.
func (t *tracer) child(parent int32, name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{name: name, op: p.op, parent: parent, track: p.track, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

// end closes a span.
func (t *tracer) end(id int32) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call runs f inside a child span of parent.
func (t *tracer) call(parent int32, name string, f func() error) error {
	id := t.child(parent, name)
	defer t.end(id)
	return f()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // sum of durations minus the time children cover
}

// aggregate sums every span name's calls, time and self time.  A span's
// self time is its duration minus the part of it its children cover.
func (t *tracer) aggregate() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		dur := s.end - s.start
		lt.count++
		lt.total += dur
		lt.self += dur - covered(t.spans, kids[i])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span, ids []int32) time.Duration {
	iv := make([][2]time.Duration, len(ids))
	for n, id := range ids {
		iv[n] = [2]time.Duration{spans[id].start, spans[id].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, hi time.Duration
	for _, v := range iv {
		lo := max(v[0], hi)
		if v[1] > lo {
			sum += v[1] - lo
			hi = v[1]
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing): one complete event per span, on the
// row of the goroutine that made the call, with its operation and
// parent as arguments.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
