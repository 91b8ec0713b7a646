package cluster

import (
	"fmt"

	"resilience/internal/obs"
	"resilience/internal/power"
)

// Comm is a rank's handle on the parallel run: its identity, virtual
// clock, frequency, power-accounting mode, and communication operations.
// A Comm is used only by its own rank goroutine and is not safe for
// sharing across goroutines.
type Comm struct {
	rank int
	rt   *Runtime

	clock    float64
	freq     float64
	waitIdle bool // whether waiting time is charged at idle power

	// active and idle are the core's watts at freq, and rate its flop
	// rate there: fixed by the platform and the frequency, so they are
	// derived in newComm and SetFreq, not on every clock advance.
	active, idle, rate float64

	// core is this rank's handle on its core of the run's meter, which
	// also carries the accounting phase.
	core power.Core

	// halos counts the halo plans this rank has built; the next one is
	// paired with its peers' plans of the same number.
	halos int

	// scratch carries this rank's contribution to a one-value allreduce
	// into the collective, so the CG dot products pass a slice without
	// allocating one.
	scratch [1]float64

	// obs is this rank's observability surface, nil unless a recorder was
	// attached to the runtime. Recording reads the clock but never
	// advances it, and a nil surface costs one pointer check on the hot
	// path.
	obs *obs.Rank
}

func newComm(rank int, rt *Runtime) *Comm {
	c := &Comm{
		rank: rank,
		rt:   rt,
		core: rt.meter.Core(rank),
	}
	c.setFreq(rt.plat.FreqMax)
	if rt.rec != nil {
		c.obs = rt.rec.Rank(rank)
	}
	return c
}

// Observer returns this rank's observability surface, or nil when no
// recorder is attached. Callers recording composite spans (halo, recovery
// phases) bracket their work with Clock reads:
//
//	if o := c.Observer(); o != nil {
//		start := c.Clock()
//		defer func() { o.Span(obs.SpanHalo, start, c.Clock()-start) }()
//	}
func (c *Comm) Observer() *obs.Rank { return c.obs }

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.rt.p }

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// Freq returns the rank's current core frequency in GHz.
func (c *Comm) Freq() float64 { return c.freq }

// SetPhase switches the accounting phase label for subsequent activity
// and returns the previous label.
func (c *Comm) SetPhase(phase string) string {
	prev := c.core.Phase()
	c.core.SetPhase(phase)
	return prev
}

// SetFreq transitions the core to the given frequency (snapped to the
// platform ladder), charging the DVFS transition latency. It models a
// write to the CPUfreq userspace governor.
func (c *Comm) SetFreq(f float64) {
	f = c.rt.plat.ClampFreq(f)
	if f == c.freq {
		return
	}
	// The transition itself is brief; charge it at the lower of the two
	// powers to avoid rewarding rapid toggling.
	c.record(c.rt.plat.DVFSLatency, minf(c.idle, c.rt.plat.PowerIdle(f)))
	c.setFreq(f)
}

// setFreq sets the core's frequency and the watts and flop rate that
// follow from it.
func (c *Comm) setFreq(f float64) {
	plat := c.rt.plat
	c.freq = f
	c.active, c.idle, c.rate = plat.PowerActive(f), plat.PowerIdle(f), plat.Rate(f)
}

// SetWaitIdle selects how waiting time (blocked receives, collective
// arrival gaps) is charged: true means idle/sleep power, false (default)
// means busy-wait at active power. Returns the previous setting.
func (c *Comm) SetWaitIdle(idle bool) bool {
	prev := c.waitIdle
	c.waitIdle = idle
	return prev
}

// Compute advances the clock by the cost of the given flops at the
// current frequency, charged at active power.
func (c *Comm) Compute(flops int64) {
	if flops <= 0 {
		return
	}
	dur := float64(flops) / c.rate // platform.ComputeTime at c.freq
	if c.obs != nil {
		c.obs.Span(obs.SpanCompute, c.clock, dur)
		c.obs.AddFlops(flops)
	}
	c.record(dur, c.active)
}

// ElapseActive advances the clock by dur seconds at active power. It is
// used for modeled work that is not flop-shaped (e.g. memory copies).
func (c *Comm) ElapseActive(dur float64) {
	c.record(dur, c.active)
}

// ElapseIdle advances the clock by dur seconds at idle power (e.g.
// blocking on a disk write).
func (c *Comm) ElapseIdle(dur float64) {
	c.record(dur, c.idle)
}

// record advances the clock by dur and meters the energy; the meter
// panics on a negative duration.
func (c *Comm) record(dur, watts float64) {
	c.core.Record(c.clock, dur, watts)
	c.clock += dur
}

// advanceTo waits (in virtual time) until t, charging wait power. kind
// classifies the wait for the observability layer (a blocked receive vs a
// collective arrival gap).
func (c *Comm) advanceTo(t float64, kind obs.SpanKind) {
	if t <= c.clock {
		return
	}
	if c.obs != nil {
		c.obs.Span(kind, c.clock, t-c.clock)
	}
	watts := c.active
	if c.waitIdle {
		watts = c.idle
	}
	c.record(t-c.clock, watts)
}

// checkAbort panics with the abort sentinel if the run has been aborted.
func (c *Comm) checkAbort() {
	if err := c.rt.aborted(); err != nil {
		panic(abortPanic{err: fmt.Errorf("cluster: rank %d aborted: %w", c.rank, err)})
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
