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

// The Chrome trace-event exporter: one Perfetto-loadable JSON document
// holding both clock domains. Wall-clock service spans form one process
// ("service wall-clock", pid 2) with one thread track per request ID.
// The virtual-time side has one timeline track per rank (pid 0, tid =
// rank) carrying the recorded spans as complete ("X") events, and counter
// ("C") tracks (pid 1) derived from the power meter's segments —
// aggregate cluster watts plus one per-core series. The two domains share
// nothing but the origin: wall timestamps are re-based so the earliest
// service span starts at t=0, where the virtual tracks also start, and
// every timestamp is in microseconds, the unit the trace-event format
// expects. The domains stay separate process groups because their axes
// genuinely differ.

// pids of the synthetic processes in the exported trace.
const (
	pidRanks   = 0
	pidPower   = 1
	pidService = 2
)

// traceEvent is one entry of the trace-event JSON array. Field order is
// fixed by the struct, and encoding/json renders floats in their shortest
// form, so exports are byte-deterministic for golden tests.
type traceEvent struct {
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
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

type nameArg struct {
	Name string `json:"name"`
}

type wattsArg struct {
	W float64 `json:"W"`
}

type reqArg struct {
	ReqID string `json:"req_id"`
}

const usPerSec = 1e6

// WriteChromeTrace writes one Chrome trace-event JSON document: the
// wall-clock spans (when there are any) ahead of the recorder's rank
// spans and, when meter retains segments, its power counters. wall, rec
// and meter may each be nil; a nil meter (or one built without segment
// retention) simply omits the counter tracks.
func WriteChromeTrace(w io.Writer, wall []WallSpan, rec *Recorder, meter *power.Meter) error {
	events := wallEvents(wall)
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", Pid: pidRanks, Args: nameArg{Name: "ranks"}},
		traceEvent{Name: "process_name", Ph: "M", Pid: pidPower, Args: nameArg{Name: "power"}},
	)
	if rec != nil {
		for rank := 0; rank < rec.Ranks(); rank++ {
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pidRanks, Tid: rank,
				Args: nameArg{Name: fmt.Sprintf("rank %d", rank)},
			})
			events = append(events, rankEvents(rank, rec.RankSpans(rank))...)
		}
	}
	if meter != nil {
		events = append(events, powerEvents(meter)...)
	}
	return json.NewEncoder(w).Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// nestingOrder returns the indices of intervals ordered so that every
// enclosing interval precedes the intervals it contains: ascending start
// time, ties broken by descending duration. The sort is stable, keeping
// recording order for exact duplicates, so the export is deterministic;
// it orders an index, because the intervals may be a recorder's own
// read-only log.
func nestingOrder[S any, T cmp.Ordered](items []S, interval func(S) (start, dur T)) []int32 {
	idx := make([]int32, len(items))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(i, j int32) int {
		si, di := interval(items[i])
		sj, dj := interval(items[j])
		if c := cmp.Compare(si, sj); c != 0 {
			return c
		}
		return cmp.Compare(dj, di)
	})
	return idx
}

// wallEvents converts wall-clock spans to X events in nesting order.
// Each distinct request gets its own thread track in first-seen order,
// so concurrent requests never interleave on one track and the nesting
// validator holds. Timestamps are microseconds since the earliest span's
// start.
func wallEvents(spans []WallSpan) []traceEvent {
	if len(spans) == 0 {
		return nil
	}
	idx := nestingOrder(spans, func(s WallSpan) (int64, int64) { return s.Start, s.Dur })
	base := spans[idx[0]].Start

	events := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: pidService, Args: nameArg{Name: "service wall-clock"}},
	}
	tids := make(map[string]int)
	for _, si := range idx {
		s := spans[si]
		tid, ok := tids[s.ReqID]
		if !ok {
			tid = len(tids)
			tids[s.ReqID] = tid
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pidService, Tid: tid,
				Args: nameArg{Name: "req " + s.ReqID},
			})
		}
		events = append(events, traceEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start-base) / 1e3, // ns -> µs
			Dur:  float64(s.Dur) / 1e3,
			Pid:  pidService,
			Tid:  tid,
			Cat:  "service",
			Args: reqArg{ReqID: s.ReqID},
		})
	}
	return events
}

// rankEvents converts one rank's spans to X events in nesting order.
func rankEvents(rank int, spans []Span) []traceEvent {
	idx := nestingOrder(spans, func(s Span) (float64, float64) { return s.Start, s.Dur })
	evs := make([]traceEvent, len(spans))
	for i, si := range idx {
		s := spans[si]
		evs[i] = traceEvent{
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
	case SpanCompute:
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
func powerEvents(meter *power.Meter) []traceEvent {
	segs := meter.Segments()
	if len(segs) == 0 {
		return nil
	}
	var evs []traceEvent

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
		evs = append(evs, traceEvent{
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
			evs = append(evs, traceEvent{
				Name: name, Ph: "C", Ts: s.Start * usPerSec,
				Pid: pidPower, Tid: tid, Args: wattsArg{W: s.Watts},
			})
			end := s.End()
			if i+1 == len(cs) || cs[i+1].Start > end+1e-12 {
				evs = append(evs, traceEvent{
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
