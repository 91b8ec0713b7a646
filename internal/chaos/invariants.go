package chaos

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"resilience/internal/core"
	"resilience/internal/obs"
)

// Invariant names, used in violation reports and by the -break fault
// injection of the checker itself (testing the tester).
const (
	InvConvergence      = "convergence"
	InvClockMonotone    = "clock-monotone"
	InvEnergyConserve   = "energy-conservation"
	InvSpanNesting      = "span-nesting"
	InvMetricsReconcile = "metrics-reconcile"
	InvTraffic          = "traffic-conservation"
	InvCollectiveSym    = "collective-symmetry"
	InvDeterminism      = "determinism"
)

// InvariantNames lists every invariant the battery checks, in report
// order. InvDeterminism is checked by the campaign runner (it needs an
// auxiliary rerun); the rest by CheckInvariants.
func InvariantNames() []string {
	return []string{
		InvConvergence, InvClockMonotone, InvEnergyConserve, InvSpanNesting,
		InvMetricsReconcile, InvTraffic, InvCollectiveSym, InvDeterminism,
	}
}

// Violation is one failed invariant with a human-readable diagnosis.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// timeTol is the absolute tolerance for virtual-clock comparisons. Clock
// arithmetic accumulates float error across ~1e5 advances, so exact
// equality is not meaningful, but drifts at this scale are bugs.
const timeTol = 1e-6

// CheckInvariants runs the post-run invariant battery over one completed
// scenario. rep must come from a run with KeepSegments and an attached
// obs.Recorder; ff is the converged fault-free baseline on the same
// system. The returned slice is empty when every invariant holds.
func CheckInvariants(s *Scenario, rep *core.RunReport, ff *core.RunReport, rec *obs.Recorder) []Violation {
	var vs []Violation
	vs = append(vs, checkConvergence(s, rep, ff)...)
	vs = append(vs, checkEnergy(rep)...)
	vs = append(vs, checkSpans(s, rep, rec)...)
	vs = append(vs, checkTraffic(rec)...)
	return vs
}

// ExpectedFailure classifies a non-converged run that is still a correct
// execution: the iteration budget ran out with faults present. Schemes
// with no forward progress under a given fault pattern (F0 restarting
// from zero on every hard fault, SDC storms with long detection delays)
// legitimately exhaust the budget; what they may not do is claim
// convergence or violate a runtime invariant while failing.
func ExpectedFailure(s *Scenario, rep *core.RunReport) (string, bool) {
	if rep.Converged {
		return "", false
	}
	if len(s.Faults) > 0 && rep.Iters >= s.MaxIters() {
		return fmt.Sprintf("budget-exhausted (%d iters, %d faults injected)", rep.Iters, len(rep.Faults)), true
	}
	return "", false
}

// checkConvergence: the faulted run must reach the same tolerance the
// fault-free baseline does, unless classified as an expected failure.
func checkConvergence(s *Scenario, rep *core.RunReport, ff *core.RunReport) []Violation {
	var vs []Violation
	if !ff.Converged {
		vs = append(vs, Violation{InvConvergence,
			fmt.Sprintf("fault-free baseline did not converge (relres %.3g after %d iters) — scenario budget bug", ff.RelRes, ff.Iters)})
		return vs
	}
	if !rep.Converged {
		if _, ok := ExpectedFailure(s, rep); !ok {
			vs = append(vs, Violation{InvConvergence,
				fmt.Sprintf("run stopped unconverged at iter %d/%d with relres %.3g (not classifiable as expected failure)",
					rep.Iters, s.MaxIters(), rep.RelRes)})
		}
		return vs
	}
	if !(rep.RelRes <= s.Tol) {
		vs = append(vs, Violation{InvConvergence,
			fmt.Sprintf("converged=true but relres %.3g > tol %g", rep.RelRes, s.Tol)})
	}
	return vs
}

// checkEnergy: the meter's aggregate energy must equal the integral of
// its retained segments, the segment timelines must cover each core's
// span gap-free, and the report must expose Energy = total * redundancy.
func checkEnergy(rep *core.RunReport) []Violation {
	var vs []Violation
	m := rep.Meter
	if m == nil {
		return []Violation{{InvEnergyConserve, "run report has no meter (KeepSegments was off)"}}
	}
	var segSum float64
	for _, seg := range m.Segments() {
		segSum += seg.Energy()
	}
	total := m.TotalEnergy()
	if !closeRel(segSum, total, 1e-8) {
		vs = append(vs, Violation{InvEnergyConserve,
			fmt.Sprintf("segment integral %.9g J != aggregate energy %.9g J", segSum, total)})
	}
	want := total * float64(rep.Redundancy)
	if !closeRel(want, rep.Energy, 1e-12) {
		vs = append(vs, Violation{InvEnergyConserve,
			fmt.Sprintf("report energy %.9g J != meter total x redundancy %.9g J", rep.Energy, want)})
	}
	if gaps := m.Gaps(timeTol); len(gaps) > 0 {
		g := gaps[0]
		vs = append(vs, Violation{InvEnergyConserve,
			fmt.Sprintf("%d unmetered gap(s); first on core %d: [%.6g, %.6g]", len(gaps), g.Core, g.Start, g.End)})
	}
	if span := m.Span(); span > rep.Time+timeTol {
		vs = append(vs, Violation{InvEnergyConserve,
			fmt.Sprintf("meter span %.6g s exceeds reported time-to-solution %.6g s", span, rep.Time)})
	}
	return vs
}

// isComposite reports whether a span kind wraps primitives (and is
// therefore excluded from the seconds counters).
func isComposite(k obs.SpanKind) bool {
	switch k {
	case obs.SpanCompute, obs.SpanSend, obs.SpanRecv, obs.SpanWait, obs.SpanCollective:
		return false
	}
	return true
}

// checkSpans validates, per rank: primitive spans are disjoint and
// monotone (the rank's virtual clock never runs backwards), the full span
// forest is well-nested (composites contain, never straddle), counters
// reconcile bitwise with the span durations they were accumulated from,
// collective counts agree across ranks, and no span outlives the run.
func checkSpans(s *Scenario, rep *core.RunReport, rec *obs.Recorder) []Violation {
	var vs []Violation
	if rec == nil {
		return []Violation{{InvSpanNesting, "run had no span recorder attached"}}
	}
	metrics := rec.Metrics()
	if len(metrics) != s.Ranks {
		return []Violation{{InvSpanNesting,
			fmt.Sprintf("recorder saw %d ranks, scenario has %d", len(metrics), s.Ranks)}}
	}
	sc := nestingScratch.Get().(*nestScratch)
	defer nestingScratch.Put(sc)
	for rank := 0; rank < s.Ranks; rank++ {
		spans := rec.RankSpans(rank) // the recorder's own log: read, never written
		vs = append(vs, checkRankClocks(rank, spans, rep.Time)...)
		vs = append(vs, checkRankNesting(rank, spans, sc)...)
		vs = append(vs, checkRankCounters(rank, spans, metrics[rank])...)
		if len(vs) > 8 { // one broken rank floods; keep reports readable
			return vs
		}
	}
	for rank := 1; rank < s.Ranks; rank++ {
		if metrics[rank].Collectives != metrics[0].Collectives {
			vs = append(vs, Violation{InvCollectiveSym,
				fmt.Sprintf("rank %d entered %d collectives, rank 0 entered %d — a bulk-synchronous program must agree",
					rank, metrics[rank].Collectives, metrics[0].Collectives)})
		}
	}
	return vs
}

// checkRankClocks: primitives in recording order are the rank's clock
// trajectory — starts never decrease, consecutive spans never overlap,
// everything is finite and within the run's time span.
func checkRankClocks(rank int, spans []obs.Span, runTime float64) []Violation {
	var vs []Violation
	prevEnd := math.Inf(-1)
	for i, sp := range spans {
		if math.IsNaN(sp.Start) || math.IsInf(sp.Start, 0) || math.IsNaN(sp.Dur) || sp.Dur < 0 {
			return []Violation{{InvClockMonotone,
				fmt.Sprintf("rank %d span %d (%s) has invalid extent start=%g dur=%g", rank, i, sp.Kind, sp.Start, sp.Dur)}}
		}
		if sp.End() > runTime+timeTol {
			return []Violation{{InvClockMonotone,
				fmt.Sprintf("rank %d span %d (%s) ends at %.6g, after the run's %.6g", rank, i, sp.Kind, sp.End(), runTime)}}
		}
		if isComposite(sp.Kind) {
			continue
		}
		if sp.Start < prevEnd-timeTol {
			return []Violation{{InvClockMonotone,
				fmt.Sprintf("rank %d span %d (%s) starts at %.9g before the previous primitive ended at %.9g — clock ran backwards",
					rank, i, sp.Kind, sp.Start, prevEnd)}}
		}
		if e := sp.End(); e > prevEnd {
			prevEnd = e
		}
	}
	return vs
}

// nestScratch is checkRankNesting's working memory — the sort index over
// a rank's spans and the sweep stack — kept between jobs so that checking a
// rank allocates nothing once both have grown to campaign size.
type nestScratch struct {
	idx   []int32
	stack []obs.Span
}

var nestingScratch = sync.Pool{New: func() any { return new(nestScratch) }}

// checkRankNesting: sort the rank's spans by (start asc, end desc) and
// sweep with a stack; every span must either be disjoint from the stack
// top or fully contained in it, and a composite may never sit inside a
// primitive. O(n log n) — campaign runs record ~10^4 spans per rank. The
// sort orders an index held in sc, not spans, which belongs to the recorder.
func checkRankNesting(rank int, spans []obs.Span, sc *nestScratch) []Violation {
	idx := sc.idx[:0]
	for i := range spans {
		idx = append(idx, int32(i))
	}
	sc.idx = idx
	slices.SortStableFunc(idx, func(a, b int32) int {
		sa, sb := spans[a], spans[b]
		// Plain comparisons, not cmp.Compare: its NaN ordering costs this
		// sort a fifth of its time, and checkRankClocks has already
		// reported any span whose extent is not a number.
		if sa.Start != sb.Start {
			if sa.Start < sb.Start {
				return -1
			}
			return 1
		}
		if ea, eb := sa.End(), sb.End(); ea != eb {
			if ea > eb {
				return -1
			}
			return 1
		}
		// Equal extents: treat the composite as the outer span. A halo
		// wrapping a single send whose receives completed without waiting
		// has exactly its send's extent.
		switch ca, cb := isComposite(sa.Kind), isComposite(sb.Kind); {
		case ca && !cb:
			return -1
		case cb && !ca:
			return 1
		}
		return 0
	})
	stack := sc.stack[:0]
	for _, i := range idx {
		sp := spans[i]
		for len(stack) > 0 && stack[len(stack)-1].End() <= sp.Start+timeTol {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if sp.End() > top.End()+timeTol {
				return []Violation{{InvSpanNesting,
					fmt.Sprintf("rank %d: %s [%.9g, %.9g] straddles %s [%.9g, %.9g]",
						rank, sp.Kind, sp.Start, sp.End(), top.Kind, top.Start, top.End())}}
			}
			if isComposite(sp.Kind) && !isComposite(top.Kind) {
				return []Violation{{InvSpanNesting,
					fmt.Sprintf("rank %d: composite %s nested inside primitive %s", rank, sp.Kind, top.Kind)}}
			}
		}
		stack = append(stack, sp)
	}
	sc.stack = stack
	return nil
}

// checkRankCounters recomputes the per-kind seconds counters by replaying
// the span sequence with the same left-to-right accumulation obs.Rank
// uses, then demands bitwise equality — any divergence means a span was
// recorded without being counted (or vice versa).
func checkRankCounters(rank int, spans []obs.Span, m obs.Metrics) []Violation {
	var compute, send, wait, coll float64
	for _, sp := range spans {
		switch sp.Kind {
		case obs.SpanCompute:
			compute += sp.Dur
		case obs.SpanSend:
			send += sp.Dur
		case obs.SpanRecv, obs.SpanWait:
			wait += sp.Dur
		case obs.SpanCollective:
			coll += sp.Dur
		}
	}
	mismatch := func(name string, got, want float64) Violation {
		return Violation{InvMetricsReconcile,
			fmt.Sprintf("rank %d %s counter %.17g != span-sequence sum %.17g", rank, name, got, want)}
	}
	switch {
	case m.ComputeSec != compute:
		return []Violation{mismatch("ComputeSec", m.ComputeSec, compute)}
	case m.SendSec != send:
		return []Violation{mismatch("SendSec", m.SendSec, send)}
	case m.WaitSec != wait:
		return []Violation{mismatch("WaitSec", m.WaitSec, wait)}
	case m.CollectiveSec != coll:
		return []Violation{mismatch("CollectiveSec", m.CollectiveSec, coll)}
	}
	return nil
}

// checkTraffic: every point-to-point byte (and message) sent must be
// received. The run completed, so no message may still be in flight.
func checkTraffic(rec *obs.Recorder) []Violation {
	if rec == nil {
		return nil
	}
	var sentMsgs, recvMsgs, sentBytes, recvBytes int64
	for _, m := range rec.Metrics() {
		sentMsgs += m.MsgsSent
		recvMsgs += m.MsgsRecv
		sentBytes += m.BytesSent
		recvBytes += m.BytesRecv
	}
	if sentMsgs != recvMsgs || sentBytes != recvBytes {
		return []Violation{{InvTraffic,
			fmt.Sprintf("sent %d msgs / %d bytes but received %d msgs / %d bytes",
				sentMsgs, sentBytes, recvMsgs, recvBytes)}}
	}
	return nil
}

// closeRel reports approximate equality under a relative tolerance
// (absolute near zero).
func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}
