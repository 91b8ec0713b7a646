// Package obs is the observability layer, in the repo's two clock
// domains, with one Chrome trace-event exporter (WriteChromeTrace) for
// both.
//
// Virtual time, inside one simulated cluster run: per-rank spans recorded
// against the virtual clocks, per-rank communication/computation
// counters, and the run's event log. Observation is pure by construction.
// A recorder only *reads* the virtual clocks the runtime already
// maintains — it never advances one, never touches the power meter, and
// never participates in synchronization — so every recorded experiment
// artifact is byte-identical with observation on or off. A disabled
// recorder (the nil default) costs a single pointer comparison on the hot
// path and zero allocations; the repository's 0 allocs/op benchmarks gate
// this. Each rank goroutine owns one Rank recording surface (handed out by
// Recorder.Rank at run start), so the hot path takes no locks; aggregated
// reads must happen after the run completes, and cluster.Run's WaitGroup
// provides the happens-before edge.
//
// Wall-clock time, around those runs in the serving fabric: a metrics
// registry with exactly-mergeable histograms, request spans, and a crash
// flight recorder. Histogram Record and span start/end are 0 allocs/op
// (gated in scripts/check.sh), so the serving hot path can afford them on
// every request.
package obs

import (
	"fmt"
	"sync"
)

// SpanKind classifies a span on a rank's virtual timeline.
type SpanKind uint8

// The span taxonomy, from runtime primitives (compute, send, recv, wait,
// collective — recorded by internal/cluster) to the solver's halo
// exchange (internal/solver) and recovery phases
// (reconstruct, checkpoint, rollback — internal/recovery). A recovery
// kind's name is also the power phase its energy is charged to, so the
// keys of a run's EnergyByPhase beside "solve" are these names.
const (
	// SpanCompute is modeled flop work at active power.
	SpanCompute SpanKind = iota
	// SpanSend is a blocking send's injection time.
	SpanSend
	// SpanRecv is the receiver-side wait until a message's arrival.
	SpanRecv
	// SpanWait is the arrival synchronization of a collective.
	SpanWait
	// SpanCollective is the tree cost of a collective operation.
	SpanCollective
	// SpanHalo is one collective halo exchange.
	SpanHalo
	// SpanReconstruct is a forward-recovery reconstruction (LI/LSI/F0/FI/RD/ESR).
	SpanReconstruct
	// SpanCheckpoint is a checkpoint write.
	SpanCheckpoint
	// SpanRollback is a checkpoint restore.
	SpanRollback

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"compute", "send", "recv", "wait", "collective",
	"halo",
	"reconstruct", "checkpoint", "rollback",
}

func (k SpanKind) String() string {
	if k >= numSpanKinds {
		return fmt.Sprintf("SpanKind(%d)", int(k))
	}
	return spanKindNames[k]
}

// Span is one interval of classified activity on a rank's virtual
// timeline. Start and Dur are virtual seconds.
type Span struct {
	Kind  SpanKind
	Start float64
	Dur   float64
}

// End returns the span's end time.
func (s Span) End() float64 { return s.Start + s.Dur }

// Metrics is the per-rank counter registry: who sent what, who waited how
// long, and where the rank's virtual seconds went, broken down by the
// runtime primitives.
type Metrics struct {
	Rank int

	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
	// Collectives counts collective invocations (barriers and
	// allreduces).
	Collectives int64
	// Flops counts modeled floating-point operations.
	Flops int64
	// Restarts counts Krylov recurrence rebuilds (recoveries, breakdowns,
	// drifted-residual verifications).
	Restarts int64

	// Virtual-second attribution of the primitive activities.
	ComputeSec    float64
	SendSec       float64
	WaitSec       float64 // blocked receives + collective arrival gaps
	CollectiveSec float64
}

// Rank is one rank's recording surface. It is owned by the rank's
// goroutine for the duration of a run and must not be shared while the
// run is in flight.
type Rank struct {
	m      Metrics
	spans  []Span
	events []Event
}

// Span records one classified interval. Zero and negative durations are
// dropped (an instantaneous activity has no timeline extent). Primitive
// kinds also accumulate into the per-kind seconds counters; composite
// kinds (halo, spmv-*, recovery phases) wrap primitives and are excluded
// so the counters never double-count.
func (r *Rank) Span(kind SpanKind, start, dur float64) {
	if dur <= 0 {
		return
	}
	r.spans = append(r.spans, Span{Kind: kind, Start: start, Dur: dur})
	switch kind {
	case SpanCompute:
		r.m.ComputeSec += dur
	case SpanSend:
		r.m.SendSec += dur
	case SpanRecv, SpanWait:
		r.m.WaitSec += dur
	case SpanCollective:
		r.m.CollectiveSec += dur
	}
}

// AddSend counts one outbound point-to-point message of the given size.
func (r *Rank) AddSend(bytes int64) {
	r.m.MsgsSent++
	r.m.BytesSent += bytes
}

// AddRecv counts one inbound point-to-point message of the given size.
func (r *Rank) AddRecv(bytes int64) {
	r.m.MsgsRecv++
	r.m.BytesRecv += bytes
}

// AddCollective counts one collective invocation.
func (r *Rank) AddCollective() { r.m.Collectives++ }

// AddFlops counts modeled floating-point work.
func (r *Rank) AddFlops(flops int64) { r.m.Flops += flops }

// IncRestarts counts one Krylov recurrence rebuild.
func (r *Rank) IncRestarts() { r.m.Restarts++ }

// Event appends one entry to the surface's event log. The run's log is
// rank 0's; Recorder.Events reads it.
func (r *Rank) Event(e Event) { r.events = append(r.events, e) }

// Recorder collects the per-rank recording surfaces of one run. The zero
// value is not usable; call NewRecorder. A Recorder observes exactly one
// run at a time; Reset it before reuse.
type Recorder struct {
	mu sync.Mutex
	// ranks holds every surface ever created; Reset clears them but keeps
	// them and the capacity of their span and event logs, so a reused
	// recorder records its next run without growing a log from nothing.
	// ranks[:live] are the surfaces handed out since the last Reset — the
	// current run, and all that Ranks, Metrics, RankSpans, SpanCount and
	// Events report.
	ranks []*Rank
	live  int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Rank returns rank's recording surface, creating surfaces on demand.
// Called once per rank at run start; the returned surface is then used
// lock-free by that rank's goroutine.
func (rec *Recorder) Rank(rank int) *Rank {
	if rank < 0 {
		panic(fmt.Sprintf("obs: invalid rank %d", rank))
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for len(rec.ranks) <= rank {
		rec.ranks = append(rec.ranks, &Rank{m: Metrics{Rank: len(rec.ranks)}})
	}
	if rec.live <= rank {
		rec.live = rank + 1
	}
	return rec.ranks[rank]
}

// Ranks returns the number of rank surfaces handed out.
func (rec *Recorder) Ranks() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.live
}

// RankSpans returns one rank's spans in recording order. Spans of a
// composite kind follow the primitives they wrap (they are recorded at
// their end), so the sequence is end-time ordered, not start-time ordered.
//
// The result is the recorder's own span log, not a copy: it is read-only,
// it may be read only once the run has joined (like every aggregated
// read), and it is valid until the next Reset.
func (rec *Recorder) RankSpans(rank int) []Span {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rank < 0 || rank >= rec.live {
		return nil
	}
	return rec.ranks[rank].spans
}

// SpanCount returns the total number of recorded spans across ranks.
func (rec *Recorder) SpanCount() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	n := 0
	for _, r := range rec.ranks[:rec.live] {
		n += len(r.spans)
	}
	return n
}

// Events returns the run's event log (rank 0's) in recording order. Like
// RankSpans it is the recorder's own log, not a copy: read-only, readable
// once the run has joined, and valid until the next Reset.
func (rec *Recorder) Events() []Event {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.live == 0 {
		return nil
	}
	return rec.ranks[0].events
}

// Metrics returns a copy of every rank's counter registry, rank order.
func (rec *Recorder) Metrics() []Metrics {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]Metrics, rec.live)
	for i, r := range rec.ranks[:rec.live] {
		out[i] = r.m
	}
	return out
}

// Reset discards every recorded span, counter and event so the recorder
// can observe another run. The surfaces and the capacity of their logs
// are kept for that run; slices RankSpans and Events returned earlier are
// invalid from here on. The run being discarded must have joined.
func (rec *Recorder) Reset() {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, r := range rec.ranks[:rec.live] {
		r.m = Metrics{Rank: i}
		r.spans = r.spans[:0]
		r.events = r.events[:0]
	}
	rec.live = 0
}
