package cluster

import (
	"math"
	"strings"
	"testing"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// runSched executes fn on p ranks under an explicit scheduler mode and
// returns the final virtual clock, the total metered energy and the
// per-rank result values fn stored.
func runSched(t *testing.T, mode SchedMode, p int, fn func(c *Comm, out []float64) error) (clock, energy float64, out []float64, err error) {
	t.Helper()
	meter := power.NewMeter(true)
	rt := NewRuntimeOpts(p, platform.Default(), meter, Options{Sched: mode})
	out = make([]float64, p)
	clock, err = rt.Run(func(c *Comm) error { return fn(c, out) })
	return clock, meter.TotalEnergy(), out, err
}

// mixedWorkload exercises every blocking primitive: compute, collectives
// on both the boxed and scalar paths, blocking and nonblocking p2p in a
// ring, bcast/gather, and a frequency change mid-run.
func mixedWorkload(c *Comm, out []float64) error {
	p := c.Size()
	rank := c.Rank()
	acc := 0.0

	c.Compute(int64(1e6 * (rank + 1)))
	acc += c.AllreduceScalarSum(float64(rank) + 0.25)
	a, b := c.AllreduceSum2(float64(rank)*1.5, 1.0/float64(rank+1))
	acc += a + b

	// Ring exchange: blocking send forward, receive from behind.
	next, prev := (rank+1)%p, (rank+p-1)%p
	c.Send(next, 7, []float64{float64(rank) * 3.5})
	got := c.Recv(prev, 7)
	acc += got[0]

	// Nonblocking halo-style exchange the other way.
	buf := []float64{acc}
	req := c.IRecvInto(next, 9, make([]float64, 1))
	sreq := c.ISend(prev, 9, buf)
	sreq.Wait()
	c.Compute(500_000)
	req.Wait()
	acc += req.dst[0]

	v := c.AllreduceSum([]float64{acc, float64(rank)})
	acc = v[0] + v[1]
	acc += c.Bcast(2%p, []float64{acc})[0]
	if g := c.Gather(0, []float64{acc}); g != nil {
		for _, blk := range g {
			acc += blk[0]
		}
	}
	c.SetFreq(c.Freq() * 0.8)
	c.Compute(2_000_000)
	c.Barrier()
	out[rank] = acc
	return nil
}

// TestCoopMatchesGoroutine pins the cooperative scheduler bitwise against
// the goroutine oracle over a workload touching every primitive: final
// virtual clocks, metered energy and all computed values must be
// byte-identical, for several rank counts.
func TestCoopMatchesGoroutine(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 13} {
		gc, ge, gout, gerr := runSched(t, SchedGoroutine, p, mixedWorkload)
		cc, ce, cout, cerr := runSched(t, SchedCoop, p, mixedWorkload)
		if gerr != nil || cerr != nil {
			t.Fatalf("p=%d: errors goroutine=%v coop=%v", p, gerr, cerr)
		}
		if math.Float64bits(gc) != math.Float64bits(cc) {
			t.Fatalf("p=%d: clocks differ: goroutine=%v coop=%v", p, gc, cc)
		}
		if math.Float64bits(ge) != math.Float64bits(ce) {
			t.Fatalf("p=%d: energy differs: goroutine=%v coop=%v", p, ge, ce)
		}
		for r := range gout {
			if math.Float64bits(gout[r]) != math.Float64bits(cout[r]) {
				t.Fatalf("p=%d rank %d: values differ: goroutine=%v coop=%v", p, r, gout[r], cout[r])
			}
		}
	}
}

// runCoopWatchdog is runWithWatchdog pinned to the cooperative mode,
// regardless of RES_SCHED.
func runCoopWatchdog(t *testing.T, p int, fn func(c *Comm) error) error {
	t.Helper()
	return runSchedWatchdog(t, SchedCoop, p, fn)
}

// TestCoopDeadlockDiagnostics re-runs the named-rank deadlock scenarios
// under the cooperative scheduler explicitly (the shared suite covers
// them via RES_SCHED): the stall protocol must force-wake parked ranks so
// they produce the same diagnostics as the goroutine runtime.
func TestCoopDeadlockDiagnostics(t *testing.T) {
	err := runCoopWatchdog(t, 4, func(c *Comm) error {
		if c.Rank() == 0 {
			return nil
		}
		c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("mismatched collective: want deadlock diagnostic, got: %v", err)
	}

	err = runCoopWatchdog(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return nil
		}
		c.RecvInto(0, 3, make([]float64, 1))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") ||
		!strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("recv from exited: want named-rank deadlock diagnostic, got: %v", err)
	}
}

// TestCoopDetectsReceiveCycle: two live ranks each blocked receiving from
// the other — neither ever exits, so the exited-rank probes stay silent
// and only the scheduler-level stall detection can fire. The goroutine
// runtime would hang forever on this program; the cooperative scheduler
// must abort it with a deadlock diagnostic.
func TestCoopDetectsReceiveCycle(t *testing.T) {
	err := runCoopWatchdog(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		c.RecvInto(other, 5, make([]float64, 1)) // both block: nobody sent
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("receive cycle: want deadlock diagnostic, got: %v", err)
	}
}

// TestSchedResolution pins the Options/RES_SCHED precedence: an explicit
// Options.Sched wins, SchedAuto resolves the environment, and an unset or
// unrecognized environment falls back to the goroutine oracle.
func TestSchedResolution(t *testing.T) {
	plat, meter := platform.Default(), power.NewMeter(false)
	t.Setenv("RES_SCHED", "")
	if got := NewRuntime(1, plat, meter).Sched(); got != SchedGoroutine {
		t.Fatalf("default mode: got %v, want goroutine", got)
	}
	t.Setenv("RES_SCHED", "coop")
	if got := NewRuntime(1, plat, meter).Sched(); got != SchedCoop {
		t.Fatalf("RES_SCHED=coop: got %v, want coop", got)
	}
	if got := NewRuntimeOpts(1, plat, meter, Options{Sched: SchedGoroutine}).Sched(); got != SchedGoroutine {
		t.Fatalf("explicit goroutine under RES_SCHED=coop: got %v, want goroutine", got)
	}
	t.Setenv("RES_SCHED", "warp-drive")
	if got := NewRuntime(1, plat, meter).Sched(); got != SchedGoroutine {
		t.Fatalf("unrecognized RES_SCHED: got %v, want goroutine fallback", got)
	}
	if SchedCoop.String() != "coop" || SchedGoroutine.String() != "goroutine" || SchedAuto.String() != "auto" {
		t.Fatalf("SchedMode.String broken: %v %v %v", SchedCoop, SchedGoroutine, SchedAuto)
	}
}
