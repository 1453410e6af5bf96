package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer records a span around each call a replay makes into a layer.
// Spans stay in memory and are written out as Chrome trace events when
// the run ends. A tracer is used from one goroutine. A nil *tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   int // innermost open span, -1 when none is
	reqs   int
}

type span struct {
	name       string
	req        int // the request (root span) the span belongs to
	parent     int // enclosing span, -1 for a request
	start, end time.Duration
	n          int // operations the span covers; per-call times divide by it
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: -1} }

// begin opens a span inside the innermost open one; a span opened with
// nothing open is a new request.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	if t.open < 0 {
		t.reqs++
	}
	t.spans = append(t.spans, span{name: name, req: t.reqs, parent: t.open, start: time.Since(t.origin), n: 1})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
	t.open = t.spans[i].parent
}

// endAs closes span i under a name its outcome decides (a sweep request
// is a hit or a miss) and with the number of operations it covered.
func (t *tracer) endAs(i int, name string, n int) {
	if t == nil {
		return
	}
	t.spans[i].name, t.spans[i].n = name, n
	t.end(i)
}

// unwind closes every open span, for a replay step that fails midway.
func (t *tracer) unwind() {
	for t != nil && t.open >= 0 {
		t.end(t.open)
	}
}

// childTime returns, per span, the time its direct children cover.
func (t *tracer) childTime() []time.Duration {
	c := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			c[s.parent] += s.end - s.start
		}
	}
	return c
}

// selfTimes returns, per span name, each span's self time (its duration
// minus its direct children's) divided by the operations it covers.
func (t *tracer) selfTimes() map[string][]time.Duration {
	c := t.childTime()
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], (s.end-s.start-c[i])/time.Duration(s.n))
	}
	return out
}

// pairedDiffs returns, for each request with both an a span and a b
// span, a's self time minus b's.
func (t *tracer) pairedDiffs(a, b string) []time.Duration {
	c := t.childTime()
	self := map[int]map[string]time.Duration{}
	for i, s := range t.spans {
		if s.name == a || s.name == b {
			if self[s.req] == nil {
				self[s.req] = map[string]time.Duration{}
			}
			self[s.req][s.name] = s.end - s.start - c[i]
		}
	}
	var out []time.Duration
	for _, m := range self {
		if da, ok := m[a]; ok {
			if db, ok := m[b]; ok {
				out = append(out, da-db)
			}
		}
	}
	return out
}

// unattributedPct is the share of request time, in percent, that no
// layer span covers.
func (t *tracer) unattributedPct() float64 {
	c := t.childTime()
	var total, gap time.Duration
	for i, s := range t.spans {
		if s.parent < 0 {
			total += s.end - s.start
			gap += s.end - s.start - c[i]
		}
	}
	return 100 * gap.Seconds() / total.Seconds()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeTrace writes the tracers' spans to path in Chrome trace-event
// format, one thread per tracer.
func writeTrace(path string, tracers ...*tracer) error {
	var ev []chromeEvent
	for tid, t := range tracers {
		for i, s := range t.spans {
			ev = append(ev, chromeEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: tid + 1,
				Ts:   float64(s.start.Nanoseconds()) / 1e3,
				Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
				Args: map[string]int{"id": i, "parent": s.parent, "req": s.req, "n": s.n},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": ev, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
