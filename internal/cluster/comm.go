package cluster

import (
	"fmt"

	"resilience/internal/obs"
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
	phase    string
	waitIdle bool // whether waiting time is charged at idle power

	// halos counts the halo plans this rank has built; the next one is
	// paired with its peers' plans of the same number.
	halos int

	// scratch carries this rank's contribution to a one- or two-value
	// allreduce into the collective, so the CG dot products pass a slice
	// without allocating one.
	scratch [inlineVals]float64

	// obs is this rank's observability surface, nil unless a recorder was
	// attached to the runtime. Recording reads the clock but never
	// advances it, and a nil surface costs one pointer check on the hot
	// path.
	obs *obs.Rank
}

func newComm(rank int, rt *Runtime) *Comm {
	c := &Comm{
		rank:  rank,
		rt:    rt,
		freq:  rt.plat.FreqMax,
		phase: "solve",
	}
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
	prev := c.phase
	c.phase = phase
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
	c.record(c.rt.plat.DVFSLatency, minf(c.rt.plat.PowerIdle(c.freq), c.rt.plat.PowerIdle(f)))
	c.freq = f
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
	dur := c.rt.plat.ComputeTime(flops, c.freq)
	if c.obs != nil {
		c.obs.Span(obs.SpanCompute, c.clock, dur)
		c.obs.AddFlops(flops)
	}
	c.record(dur, c.rt.plat.PowerActive(c.freq))
}

// ElapseActive advances the clock by dur seconds at active power. It is
// used for modeled work that is not flop-shaped (e.g. memory copies).
func (c *Comm) ElapseActive(dur float64) {
	c.record(dur, c.rt.plat.PowerActive(c.freq))
}

// ElapseIdle advances the clock by dur seconds at idle power (e.g.
// blocking on a disk write).
func (c *Comm) ElapseIdle(dur float64) {
	c.record(dur, c.rt.plat.PowerIdle(c.freq))
}

// record advances the clock by dur and meters the energy.
func (c *Comm) record(dur, watts float64) {
	if dur == 0 {
		return
	}
	if dur < 0 {
		panic(fmt.Sprintf("cluster: rank %d negative duration %g", c.rank, dur))
	}
	c.rt.meter.Record(c.rank, c.phase, c.clock, dur, watts)
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
	watts := c.rt.plat.PowerActive(c.freq)
	if c.waitIdle {
		watts = c.rt.plat.PowerIdle(c.freq)
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
