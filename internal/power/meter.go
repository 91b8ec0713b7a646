// Package power implements the simulated energy measurement substrate that
// replaces the Intel RAPL interface the paper reads: a per-core,
// phase-tagged power meter over virtual time. The CPUfreq governors the
// paper switches between are not emulated here; cluster.Comm plays them
// (a waiting rank busy-waits at active power, as under ondemand with MPI
// polling, and Comm.SetFreq writes a core's frequency as the userspace
// governor does).
//
// The meter stores (core, phase, start, duration, watts) segments.
// Each core reserved with Reserve is recorded through its own Core
// handle, by its own goroutine, concurrently with the others. Contiguous
// segments with identical core/phase/watts are coalesced to bound memory.
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
	cores    []coreMeter // dense, indexed by core id
	keepSegs bool
	// bound is set once a Core handle has been taken: the handles point
	// into cores, so Reserve may no longer move it.
	bound bool
}

// coreMeter is one core's accumulator.
type coreMeter struct {
	energy  float64
	lastEnd float64
	phases  []phaseEnergy
	segs    []Segment // retained segments, in the core's program order
}

// phaseEnergy is one (phase, energy) entry. A core sees only a handful
// of phase labels, so a Core handle finds its phase's entry by a linear
// scan, once per phase switch.
type phaseEnergy struct {
	phase string
	e     float64
}

// NewMeter returns a meter. If keepSegments is false, only aggregate
// energies are kept (cheaper for large sweeps); timelines then cannot be
// reconstructed.
func NewMeter(keepSegments bool) *Meter {
	return &Meter{keepSegs: keepSegments}
}

// Reserve sizes the per-core table for cores [0, n); only reserved cores
// can be recorded. The cluster runtime reserves its full rank range
// before any rank starts, and each rank then takes its core's handle.
// Reserve must not move a core a handle points at: once Core has been
// called, a Reserve that would grow the table panics.
func (m *Meter) Reserve(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > len(m.cores) {
		if m.bound {
			panic(fmt.Sprintf("power: Reserve(%d) would move the %d cores that Core handles point at", n, len(m.cores)))
		}
		grown := make([]coreMeter, n)
		copy(grown, m.cores)
		m.cores = grown
	}
}

// Core is the handle through which one core's energy is recorded: the
// one record path of the meter. Records take no lock: each core is
// written through one handle by exactly one rank goroutine (core id =
// rank), and aggregate reads happen after the run joins, so no
// synchronization is needed beyond the run's own edges. Record runs on
// every virtual clock advance of every rank, so a handle keeps what a
// record would otherwise look up: the core's accumulator and the current
// phase's energy entry.
type Core struct {
	cm    *coreMeter
	id    int
	keep  bool
	phase string
	// pe is phase's index in cm.phases, or -1 until the first record in
	// the phase: a phase that records nothing gets no entry.
	pe int
}

// Core returns the recording handle of a reserved core, in phase
// "solve". It panics on a core that Reserve did not reserve.
func (m *Meter) Core(core int) Core {
	m.mu.Lock()
	defer m.mu.Unlock()
	if core < 0 || core >= len(m.cores) {
		panic(fmt.Sprintf("power: record on core %d, which Reserve did not reserve (%d reserved)", core, len(m.cores)))
	}
	m.bound = true
	return Core{cm: &m.cores[core], id: core, keep: m.keepSegs, phase: "solve", pe: -1}
}

// Phase returns the label subsequent records are charged to.
func (h *Core) Phase() string { return h.phase }

// SetPhase switches the label subsequent records are charged to.
func (h *Core) SetPhase(phase string) {
	h.phase, h.pe = phase, -1
}

// Record adds a segment to the core. Zero-duration segments are ignored;
// negative or NaN durations and powers panic (they indicate a
// virtual-clock bug). A retained segment is coalesced with the core's
// previous one when contiguous and identical in phase and power.
func (h *Core) Record(start, dur, watts float64) {
	if !(dur > 0) || !(watts >= 0) {
		if dur == 0 {
			return
		}
		panic(fmt.Sprintf("power: negative/NaN duration %g or power %g on core %d phase %q", dur, watts, h.id, h.phase))
	}
	cm := h.cm
	e := watts * dur
	cm.energy += e
	if h.pe < 0 {
		h.pe = cm.phaseEntry(h.phase)
	}
	cm.phases[h.pe].e += e
	if end := start + dur; end > cm.lastEnd {
		cm.lastEnd = end
	}
	if !h.keep {
		return
	}
	if n := len(cm.segs); n > 0 {
		last := &cm.segs[n-1]
		if last.Phase == h.phase && last.Watts == watts &&
			math.Abs(last.End()-start) < 1e-12 {
			last.Dur += dur
			return
		}
	}
	cm.segs = append(cm.segs, Segment{Core: h.id, Phase: h.phase, Start: start, Dur: dur, Watts: watts})
}

// phaseEntry returns the index of phase's entry, adding a zero one if the
// core has none yet.
func (cm *coreMeter) phaseEntry(phase string) int {
	for i := range cm.phases {
		if cm.phases[i].phase == phase {
			return i
		}
	}
	cm.phases = append(cm.phases, phaseEnergy{phase: phase})
	return len(cm.phases) - 1
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
// is supposed to pass through a Core's Record. Requires segment retention; it
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
