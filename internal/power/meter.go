// Package power implements the simulated energy measurement substrate that
// replaces the Intel RAPL interface the paper reads: a per-core,
// phase-tagged power meter over virtual time. The CPUfreq governors the
// paper switches between are not emulated here; cluster.Comm plays them
// (a waiting rank busy-waits at active power, as under ondemand with MPI
// polling, and Comm.SetFreq writes a core's frequency as the userspace
// governor does).
//
// The meter stores (core, phase, start, duration, watts) segments.
// Each core reserved with Reserve may be recorded by its own goroutine
// concurrently with the others. Contiguous segments with identical
// core/phase/watts are coalesced to bound memory.
package power

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Segment is one constant-power interval on one core.
type Segment struct {
	Core  int
	Phase string
	Start float64 // virtual seconds
	Dur   float64
	Watts float64
}

// End returns the segment's end time.
func (s Segment) End() float64 { return s.Start + s.Dur }

// Energy returns the segment's energy in joules.
func (s Segment) Energy() float64 { return s.Watts * s.Dur }

// Meter accumulates energy segments over virtual time.
//
// Energy and retained segments are kept per core, not in shared totals
// and one shared list: each core is written by a single rank goroutine in
// its program order, so the per-core sums and segment lists are
// scheduling-independent, and the read side walks cores in ascending
// order. Totals, segment lists and the timelines built from them are
// therefore bitwise run-to-run deterministic even though ranks record
// concurrently (a shared += or append would pick up the goroutine
// interleaving).
type Meter struct {
	mu       sync.Mutex
	cores    []coreMeter // dense, indexed by core id, grown on demand
	keepSegs bool
}

// coreMeter is one core's accumulator. Dense per-core state (vs. the
// former int-keyed maps) makes Record — which runs on every virtual
// clock advance of every rank — an index plus a float add.
type coreMeter struct {
	energy  float64
	lastEnd float64
	phases  []phaseEnergy
	segs    []Segment // retained segments, in the core's program order
}

// phaseEnergy is one (phase, energy) entry. A core sees only a handful
// of phase labels, so a linear scan with Go's pointer-first string
// compare beats hashing the label on every record; the per-record `+=`
// sequence (and hence every reported bit) is unchanged from the map
// implementation.
type phaseEnergy struct {
	phase string
	e     float64
}

func (cm *coreMeter) addPhase(phase string, e float64) {
	for i := range cm.phases {
		if cm.phases[i].phase == phase {
			cm.phases[i].e += e
			return
		}
	}
	cm.phases = append(cm.phases, phaseEnergy{phase: phase, e: e})
}

// NewMeter returns a meter. If keepSegments is false, only aggregate
// energies are kept (cheaper for large sweeps); timelines then cannot be
// reconstructed.
func NewMeter(keepSegments bool) *Meter {
	return &Meter{keepSegs: keepSegments}
}

// Reserve sizes the per-core table for cores [0, n); only reserved cores
// can be recorded. Records take no lock: each core's accumulator is
// written by exactly one rank goroutine (core id = rank) and aggregate
// reads happen after the run joins, so no synchronization is needed
// beyond the run's own edges. The cluster runtime reserves its full rank
// range before any rank starts. Record runs on every virtual clock
// advance of every rank, so a global mutex there would be the one
// cross-rank serialization point of the simulation hot path.
func (m *Meter) Reserve(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > len(m.cores) {
		grown := make([]coreMeter, n)
		copy(grown, m.cores)
		m.cores = grown
	}
}

// Record adds a segment to a reserved core. Zero-duration segments are
// ignored; negative durations panic (they indicate a virtual-clock bug),
// and so does a record on a core that Reserve did not reserve.
func (m *Meter) Record(core int, phase string, start, dur, watts float64) {
	if dur == 0 {
		return
	}
	if dur < 0 || math.IsNaN(dur) {
		panic(fmt.Sprintf("power: negative/NaN duration %g on core %d phase %q", dur, core, phase))
	}
	if watts < 0 || math.IsNaN(watts) {
		panic(fmt.Sprintf("power: negative/NaN power %g on core %d phase %q", watts, core, phase))
	}
	if core < 0 || core >= len(m.cores) {
		panic(fmt.Sprintf("power: record on core %d, which Reserve did not reserve (%d reserved)", core, len(m.cores)))
	}
	m.cores[core].record(core, phase, start, dur, watts, m.keepSegs)
}

// record adds one segment to the core's accumulator, retaining it when
// keep is set. A retained segment is coalesced with the core's previous
// one when contiguous and identical in phase and power.
func (cm *coreMeter) record(core int, phase string, start, dur, watts float64, keep bool) {
	e := watts * dur
	cm.energy += e
	cm.addPhase(phase, e)
	if end := start + dur; end > cm.lastEnd {
		cm.lastEnd = end
	}
	if !keep {
		return
	}
	if n := len(cm.segs); n > 0 {
		last := &cm.segs[n-1]
		if last.Phase == phase && last.Watts == watts &&
			math.Abs(last.End()-start) < 1e-12 {
			last.Dur += dur
			return
		}
	}
	cm.segs = append(cm.segs, Segment{Core: core, Phase: phase, Start: start, Dur: dur, Watts: watts})
}

// TotalEnergy returns the total recorded energy in joules, reduced over
// cores in ascending order (never-recorded cores contribute +0, which
// cannot change any bit of the sum).
func (m *Meter) TotalEnergy() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total float64
	for i := range m.cores {
		total += m.cores[i].energy
	}
	return total
}

// EnergyByPhase returns the per-phase energy breakdown, reduced over cores
// in ascending order (each phase appears once per core, so the per-core
// entry order cannot affect the sums).
func (m *Meter) EnergyByPhase() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64)
	for i := range m.cores {
		for _, pe := range m.cores[i].phases {
			out[pe.phase] += pe.e
		}
	}
	return out
}

// Segments returns a copy of the recorded segments, core by core in
// ascending core order and each core's in the order it recorded them
// (empty when the meter was created without segment retention).
func (m *Meter) Segments() []Segment {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i := range m.cores {
		n += len(m.cores[i].segs)
	}
	out := make([]Segment, 0, n)
	for i := range m.cores {
		out = append(out, m.cores[i].segs...)
	}
	return out
}

// Span returns the latest end time recorded on any core.
func (m *Meter) Span() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var end float64
	for i := range m.cores {
		if t := m.cores[i].lastEnd; t > end {
			end = t
		}
	}
	return end
}

// Gap is an interval of one core's timeline with no recorded segment —
// virtual time the clock advanced through without energy accounting.
type Gap struct {
	Core  int
	Start float64
	End   float64
}

// Gaps returns every unaccounted interval longer than tol on any core,
// from each core's first recorded segment to its last (cores start at
// different times by construction, so leading idle is not a gap). A
// non-empty result indicates a clock-accounting bug: every clock advance
// is supposed to pass through Record. Requires segment retention; it
// panics otherwise, since an empty answer from a segment-less meter would
// falsely report full coverage.
func (m *Meter) Gaps(tol float64) []Gap {
	if !m.keepSegs {
		panic("power: Gaps requires a meter with segment retention")
	}
	segs := m.Segments()
	var gaps []Gap
	for len(segs) > 0 {
		// Segments come grouped by core; cut off this core's run.
		core, n := segs[0].Core, 1
		for n < len(segs) && segs[n].Core == core {
			n++
		}
		cs := segs[:n:n]
		segs = segs[n:]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		end := cs[0].End()
		for _, s := range cs[1:] {
			if s.Start > end+tol {
				gaps = append(gaps, Gap{Core: core, Start: end, End: s.Start})
			}
			if e := s.End(); e > end {
				end = e
			}
		}
	}
	return gaps
}

// Sample is one point of a power timeline.
type Sample struct {
	Time  float64
	Watts float64
}

// Timeline integrates aggregate power over all cores into dt-wide bins
// from t=0 to the meter span (the power profile of Figure 7a). It
// requires segment retention.
func (m *Meter) Timeline(dt float64) []Sample {
	if dt <= 0 {
		panic("power: Timeline needs dt > 0")
	}
	segs := m.Segments()
	span := m.Span()
	if span == 0 || len(segs) == 0 {
		return nil
	}
	nbins := int(math.Ceil(span/dt)) + 1
	energy := make([]float64, nbins)
	for _, s := range segs {
		// Spread the segment's energy across the bins it overlaps.
		b0 := int(s.Start / dt)
		b1 := int(s.End() / dt)
		if b1 >= nbins {
			b1 = nbins - 1
		}
		for b := b0; b <= b1; b++ {
			lo := math.Max(s.Start, float64(b)*dt)
			hi := math.Min(s.End(), float64(b+1)*dt)
			if hi > lo {
				energy[b] += s.Watts * (hi - lo)
			}
		}
	}
	out := make([]Sample, nbins)
	for b := range energy {
		out[b] = Sample{Time: (float64(b) + 0.5) * dt, Watts: energy[b] / dt}
	}
	return out
}

// PhaseWindows returns, for each recorded phase, the merged time windows
// during which any core ran that phase. Used by tests and the power
// profile reports to locate reconstruction windows.
func (m *Meter) PhaseWindows(phase string) [][2]float64 {
	segs := m.Segments()
	var ws [][2]float64
	for _, s := range segs {
		if s.Phase == phase {
			ws = append(ws, [2]float64{s.Start, s.End()})
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i][0] < ws[j][0] })
	var merged [][2]float64
	for _, w := range ws {
		if n := len(merged); n > 0 && w[0] <= merged[n-1][1]+1e-12 {
			if w[1] > merged[n-1][1] {
				merged[n-1][1] = w[1]
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}
