package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark's own span recorder. Spans are recorded from outside the
// program, around each call the benchmark makes into a layer; they stay
// in memory and are written once, when the run ends, as a Chrome
// trace-event document (the format the repo's other traces use, so it
// opens in Perfetto). A nil *tracer records nothing, which is how the
// untraced run shares the workload code.

// maxSpans bounds memory on the request-per-op workloads; spans past it
// are counted in dropped, not recorded.
const maxSpans = 200000

type span struct {
	name   string
	op     int64 // operation id shared by every span of one op
	parent int   // index of the causing span, -1 for a root
	track  int   // client goroutine, one Chrome thread each
	start  time.Duration
	dur    time.Duration
}

type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when not recorded).
func (t *tracer) begin(name string, op int64, parent, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, track: track, start: now, dur: -1})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[h].dur = now - t.spans[h].start
	t.mu.Unlock()
}

// probe records fn as one root span on track 0 and returns its duration.
func (t *tracer) probe(name string, fn func()) time.Duration {
	h := t.begin(name, 0, -1, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(h)
	return d
}

// spanTotals is one span name's count, total time and self time (total
// minus the part its child spans cover).
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) totals() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.dur > 0 {
			child[s.parent] += s.dur
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range t.spans {
		if s.dur < 0 {
			continue
		}
		st := out[s.name]
		st.Count++
		st.TotalMs += ms(s.dur)
		if self := s.dur - child[i]; self > 0 {
			st.SelfMs += ms(self)
		}
		out[s.name] = st
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders the spans to <dir>/<workload>.trace.json. Each event's
// args carry its span id, the id of the span that caused it (-1 for a
// root) and the op id every span of one operation shares.
func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	events := make([]traceEvent, 0, len(spans)+1)
	events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "bench " + workload}})
	for id, s := range spans {
		if s.dur < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: s.track,
			Args: map[string]any{"id": id, "parent": s.parent, "op": s.op},
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), body, 0o644)
}
