package obs

import (
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// WallSpan is one wall-clock interval attributed to a request: the
// phases of a solve request's life (admission-wait, cache-lookup, queue,
// solve, encode) each record one. Start is wall-clock Unix nanoseconds;
// Dur is measured on the monotonic clock. (Span is the virtual-time
// interval on a rank's timeline.)
type WallSpan struct {
	ReqID string `json:"req_id"`
	Name  string `json:"name"`
	Start int64  `json:"start_unix_ns"`
	Dur   int64  `json:"dur_ns"`
}

// Tracer records spans into a fixed-size ring — the most recent spans of
// the process, cheap enough to leave on in production. Start/End is 0
// allocs/op (the ring is preallocated and the strings are references,
// gated by BenchmarkSpanStartEnd); the ring is mutex-guarded, not
// lock-free, because span completion is orders of magnitude rarer than
// histogram records.
type Tracer struct {
	ring ring[WallSpan]
}

// NewTracer returns a tracer retaining the last size spans.
func NewTracer(size int) *Tracer {
	return &Tracer{ring: newRing[WallSpan](size)}
}

// ActiveSpan is an in-flight span handle. It is a value: starting a
// span allocates nothing.
type ActiveSpan struct {
	t     *Tracer
	name  string
	reqID string
	start time.Time
}

// Start opens a span. End records it.
func (t *Tracer) Start(name, reqID string) ActiveSpan {
	return ActiveSpan{t: t, name: name, reqID: reqID, start: time.Now()}
}

// End records the span and returns its duration.
func (s ActiveSpan) End() time.Duration {
	d := time.Since(s.start)
	if s.t != nil {
		s.t.Record(s.name, s.reqID, s.start, d)
	}
	return d
}

// Record stores an externally-timed span (e.g. queue residency, whose
// start was stamped by the admitting handler and whose end is observed
// by the worker).
func (t *Tracer) Record(name, reqID string, start time.Time, d time.Duration) {
	t.ring.put(WallSpan{ReqID: reqID, Name: name, Start: start.UnixNano(), Dur: int64(d)})
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []WallSpan { return t.ring.values() }

// Request-ID minting: <prefix>-<boot entropy>-<counter>. The entropy
// ties IDs to one process start so IDs from a restarted replica never
// collide with its predecessor's; the counter makes them unique and
// ordered within the process.
var (
	reqCounter atomic.Uint64
	reqEntropy = fmt.Sprintf("%08x", uint32(time.Now().UnixNano())^uint32(os.Getpid())<<16)
)

// NewRequestID mints a process-unique request ID. Components that
// originate requests (resilience-load, the router, a replica receiving
// a bare request) mint one and propagate it via the X-Request-Id
// header; every response echoes it back.
func NewRequestID() string {
	return fmt.Sprintf("r-%s-%06d", reqEntropy, reqCounter.Add(1))
}

// RequestID is the server half of that propagation: it honors the
// caller's X-Request-Id, mints one for a bare request, and echoes the ID
// on the response — success or failure — so a client can quote the ID a
// flight-recorder dump will name.
func RequestID(w http.ResponseWriter, r *http.Request) string {
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = NewRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	return reqID
}
