package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"resilience/internal/power"
)

// The Chrome trace-event exporter: one Perfetto-loadable JSON document per
// run, with one timeline track per rank (pid 0, tid = rank) carrying the
// recorded spans as complete ("X") events, and counter ("C") tracks
// (pid 1) derived from the power meter's segments — aggregate cluster
// watts plus one per-core series. Timestamps are the virtual clocks
// converted to microseconds, the unit the trace-event format expects.

// pids of the two synthetic processes in the exported trace.
const (
	pidRanks = 0
	pidPower = 1
)

// TraceEvent is one entry of the trace-event JSON array. Field order is
// fixed by the struct, and encoding/json renders floats in their shortest
// form, so exports are byte-deterministic for golden tests. It is
// exported so internal/telemetry can lay wall-clock service tracks
// alongside the virtual-time tracks in one merged trace.
type TraceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Cat  string  `json:"cat,omitempty"`
	Args any     `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

type nameArg struct {
	Name string `json:"name"`
}

type wattsArg struct {
	W float64 `json:"W"`
}

const usPerSec = 1e6

// WriteChromeTrace writes the recorder's spans (and, when meter retains
// segments, its power counters) as Chrome trace-event JSON. Either rec or
// meter may be nil; a nil meter (or one built without segment retention)
// simply omits the counter tracks.
func WriteChromeTrace(w io.Writer, rec *Recorder, meter *power.Meter) error {
	return WriteTraceEvents(w, Events(rec, meter))
}

// Events builds the virtual-time trace events — the rank timeline
// tracks and power counter tracks — without encoding them, so callers
// (internal/telemetry's merged exporter) can append tracks of their own
// before writing one document.
func Events(rec *Recorder, meter *power.Meter) []TraceEvent {
	var events []TraceEvent

	events = append(events,
		TraceEvent{Name: "process_name", Ph: "M", Pid: pidRanks, Args: nameArg{Name: "ranks"}},
		TraceEvent{Name: "process_name", Ph: "M", Pid: pidPower, Args: nameArg{Name: "power"}},
	)
	if rec != nil {
		for rank := 0; rank < rec.Ranks(); rank++ {
			events = append(events, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: pidRanks, Tid: rank,
				Args: nameArg{Name: fmt.Sprintf("rank %d", rank)},
			})
			events = append(events, rankEvents(rank, rec.RankSpans(rank))...)
		}
	}
	if meter != nil {
		events = append(events, powerEvents(meter)...)
	}
	return events
}

// WriteTraceEvents encodes events as one Chrome trace-event JSON
// document (the exact bytes WriteChromeTrace has always produced).
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// rankEvents converts one rank's spans to X events ordered so that every
// enclosing span precedes the spans it contains: ascending start time,
// ties broken by descending duration. The sort is stable, keeping
// recording order for exact duplicates, so the export is deterministic;
// it orders an index, because spans is the recorder's own read-only log.
func rankEvents(rank int, spans []Span) []TraceEvent {
	idx := make([]int32, len(spans))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(i, j int32) int {
		if c := cmp.Compare(spans[i].Start, spans[j].Start); c != 0 {
			return c
		}
		return cmp.Compare(spans[j].Dur, spans[i].Dur)
	})
	evs := make([]TraceEvent, len(spans))
	for i, si := range idx {
		s := spans[si]
		evs[i] = TraceEvent{
			Name: s.Kind.String(),
			Ph:   "X",
			Ts:   s.Start * usPerSec,
			Dur:  s.Dur * usPerSec,
			Pid:  pidRanks,
			Tid:  rank,
			Cat:  spanCategory(s.Kind),
		}
	}
	return evs
}

// spanCategory groups kinds into the coarse categories Perfetto can
// filter on.
func spanCategory(k SpanKind) string {
	switch k {
	case SpanCompute, SpanSpMVInterior, SpanSpMVBoundary:
		return "compute"
	case SpanSend, SpanRecv, SpanWait, SpanCollective, SpanHalo:
		return "comm"
	case SpanReconstruct, SpanCheckpoint, SpanRollback:
		return "recovery"
	}
	return "other"
}

// powerEvents derives counter tracks from the meter's segments: one
// aggregate "cluster W" series (a delta-walk over all segment edges) and
// one "core N W" series per core (piecewise-constant, dropping to zero
// across gaps). Empty when the meter was built without segment retention.
func powerEvents(meter *power.Meter) []TraceEvent {
	segs := meter.Segments()
	if len(segs) == 0 {
		return nil
	}
	var evs []TraceEvent

	// Aggregate: sum of active segment watts at each segment edge.
	type edge struct {
		t float64
		w float64
	}
	edges := make([]edge, 0, 2*len(segs))
	for _, s := range segs {
		edges = append(edges, edge{t: s.Start, w: s.Watts}, edge{t: s.End(), w: -s.Watts})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	var acc float64
	for i, e := range edges {
		acc += e.w
		if i+1 < len(edges) && edges[i+1].t == e.t {
			continue // fold simultaneous edges into one sample
		}
		w := acc
		if w < 0 { // guard rounding at the final edge
			w = 0
		}
		evs = append(evs, TraceEvent{
			Name: "cluster W", Ph: "C", Ts: e.t * usPerSec,
			Pid: pidPower, Args: wattsArg{W: round6(w)},
		})
	}

	// Per-core: segments are piecewise-constant already; emit the watts at
	// each segment start and a zero sample over any coverage gap.
	byCore := make(map[int][]power.Segment)
	cores := make([]int, 0)
	for _, s := range segs {
		if _, ok := byCore[s.Core]; !ok {
			cores = append(cores, s.Core)
		}
		byCore[s.Core] = append(byCore[s.Core], s)
	}
	sort.Ints(cores)
	for _, core := range cores {
		cs := byCore[core]
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		name := fmt.Sprintf("core %d W", core)
		tid := core + 1 // tid 0 is reserved for the aggregate series
		for i, s := range cs {
			evs = append(evs, TraceEvent{
				Name: name, Ph: "C", Ts: s.Start * usPerSec,
				Pid: pidPower, Tid: tid, Args: wattsArg{W: s.Watts},
			})
			end := s.End()
			if i+1 == len(cs) || cs[i+1].Start > end+1e-12 {
				evs = append(evs, TraceEvent{
					Name: name, Ph: "C", Ts: end * usPerSec,
					Pid: pidPower, Tid: tid, Args: wattsArg{W: 0},
				})
			}
		}
	}
	return evs
}

// round6 snaps a watts value to 1e-6 W so the aggregate delta-walk's
// floating-point dust (sums and differences of per-core powers) doesn't
// leak into the export.
func round6(w float64) float64 {
	return math.Round(w*1e6) / 1e6
}

// ValidateChromeTrace structurally checks an exported trace: known phase
// codes, non-negative monotone timestamps per track, well-formed X events,
// and proper nesting of the X events on each rank track. It is the test
// suite's gate on anything WriteChromeTrace emits.
func ValidateChromeTrace(data []byte) error {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("obs: trace has no events")
	}
	type track struct{ pid, tid int }
	lastTs := make(map[track]float64)
	stacks := make(map[track][]float64) // open X-event end times
	const eps = 1e-6                    // µs; well below any modeled cost
	for i, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "X", "C":
		default:
			return fmt.Errorf("obs: event %d has unknown phase %q", i, e.Ph)
		}
		if e.Ts < 0 || math.IsNaN(e.Ts) || e.Dur < 0 || math.IsNaN(e.Dur) {
			return fmt.Errorf("obs: event %d (%s) has invalid ts=%g dur=%g", i, e.Name, e.Ts, e.Dur)
		}
		k := track{e.Pid, e.Tid}
		if prev, ok := lastTs[k]; ok && e.Ts < prev-eps {
			return fmt.Errorf("obs: event %d (%s) ts %g precedes track (%d,%d) cursor %g",
				i, e.Name, e.Ts, e.Pid, e.Tid, prev)
		}
		lastTs[k] = e.Ts
		if e.Ph != "X" {
			continue
		}
		if e.Name == "" {
			return fmt.Errorf("obs: X event %d has no name", i)
		}
		// Pop completed spans, then require full containment in the
		// innermost still-open span.
		st := stacks[k]
		for len(st) > 0 && st[len(st)-1] <= e.Ts+eps {
			st = st[:len(st)-1]
		}
		end := e.Ts + e.Dur
		if len(st) > 0 && end > st[len(st)-1]+eps {
			return fmt.Errorf("obs: X event %d (%s) on track (%d,%d) ends at %g, past its enclosing span's end %g",
				i, e.Name, e.Pid, e.Tid, end, st[len(st)-1])
		}
		stacks[k] = append(st, end)
	}
	return nil
}
