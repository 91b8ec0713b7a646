package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"resilience/internal/platform"
	"resilience/internal/power"
)

func run(t *testing.T, p int, fn func(c *Comm) error) (float64, *power.Meter) {
	t.Helper()
	meter := power.NewMeter(true)
	maxClock, err := Run(p, platform.Default(), meter, fn)
	if err != nil {
		t.Fatal(err)
	}
	return maxClock, meter
}

func TestAllreduceSum(t *testing.T) {
	const p = 7
	_, _ = run(t, p, func(c *Comm) error {
		got := c.AllreduceSum([]float64{float64(c.Rank()), 1})
		wantSum := float64(p*(p-1)) / 2
		if got[0] != wantSum || got[1] != p {
			return fmt.Errorf("rank %d: got %v", c.Rank(), got)
		}
		return nil
	})
}

func TestAllreduceSumDeterministicOrder(t *testing.T) {
	// Summation must happen in rank order regardless of arrival order, so
	// repeated runs give bitwise-identical results.
	vals := []float64{1e-16, 1.0, -1.0, 3e-16, 1e16, -1e16, 2.5}
	var first float64
	for trial := 0; trial < 5; trial++ {
		res := make([]float64, 7)
		_, _ = run(t, 7, func(c *Comm) error {
			// Stagger arrival by doing rank-dependent fake work.
			c.Compute(int64(1000 * (7 - c.Rank())))
			out := c.AllreduceScalarSum(vals[c.Rank()])
			res[c.Rank()] = out
			return nil
		})
		for r := 1; r < 7; r++ {
			if res[r] != res[0] {
				t.Fatalf("trial %d: ranks disagree: %v", trial, res)
			}
		}
		if trial == 0 {
			first = res[0]
		} else if res[0] != first {
			t.Fatalf("trial %d: non-deterministic sum %g vs %g", trial, res[0], first)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	const p = 4
	clocks := make([]float64, p)
	_, _ = run(t, p, func(c *Comm) error {
		c.Compute(int64(1e6 * (c.Rank() + 1))) // staggered work
		c.Barrier()
		clocks[c.Rank()] = c.Clock()
		return nil
	})
	for r := 1; r < p; r++ {
		if math.Abs(clocks[r]-clocks[0]) > 1e-12 {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
}

func TestSendRecvFIFO(t *testing.T) {
	_, _ = run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{1})
			c.Send(1, 9, []float64{2})
			c.Send(1, 9, []float64{3})
			return nil
		}
		for want := 1.0; want <= 3; want++ {
			got := c.Recv(0, 9)
			if got[0] != want {
				return fmt.Errorf("got %v want %g", got, want)
			}
		}
		return nil
	})
}

func TestSendCopiesPayload(t *testing.T) {
	_, _ = run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{5}
			c.Send(1, 1, buf)
			buf[0] = 99 // must not affect the receiver
			return nil
		}
		if got := c.Recv(0, 1); got[0] != 5 {
			return fmt.Errorf("payload aliased: %v", got)
		}
		return nil
	})
}

func TestRecvAdvancesClockToArrival(t *testing.T) {
	_, _ = run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(2e9) // ~1s of work before sending
			c.Send(1, 1, []float64{1})
			return nil
		}
		before := c.Clock()
		c.Recv(0, 1)
		if c.Clock() <= before || c.Clock() < 0.9 {
			return fmt.Errorf("receiver clock %g did not advance to arrival", c.Clock())
		}
		return nil
	})
}

func TestSendIntsRoundTrip(t *testing.T) {
	_, _ = run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendInts(1, 3, []int{10, -20, 30})
			return nil
		}
		got := c.RecvInts(0, 3)
		if len(got) != 3 || got[0] != 10 || got[1] != -20 || got[2] != 30 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
}

func TestComputeAdvancesClockAndMetersEnergy(t *testing.T) {
	plat := platform.Default()
	maxClock, meter := run(t, 1, func(c *Comm) error {
		c.Compute(int64(plat.FlopRate)) // exactly 1s at fmax
		return nil
	})
	if math.Abs(maxClock-1) > 1e-9 {
		t.Errorf("clock %g want 1", maxClock)
	}
	want := plat.PowerActive(plat.FreqMax)
	if got := meter.TotalEnergy(); math.Abs(got-want) > 1e-9 {
		t.Errorf("energy %g want %g", got, want)
	}
}

func TestSetFreqSlowsCompute(t *testing.T) {
	plat := platform.Default()
	maxClock, _ := run(t, 1, func(c *Comm) error {
		c.SetFreq(plat.FreqMin)
		if c.Freq() != plat.FreqMin {
			return fmt.Errorf("freq %g", c.Freq())
		}
		c.Compute(int64(plat.FlopRate))
		return nil
	})
	want := plat.FreqMax / plat.FreqMin // slowdown factor
	if maxClock < want*0.99 {
		t.Errorf("clock %g want >= %g", maxClock, want)
	}
}

func TestWaitIdlePowerAccounting(t *testing.T) {
	// Rank 1 waits for rank 0; with SetWaitIdle(true) the waiting time
	// must be charged at idle power.
	plat := platform.Default()
	meter := power.NewMeter(true)
	_, err := Run(2, plat, meter, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(int64(plat.FlopRate)) // 1s
		} else {
			c.SetWaitIdle(true)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := meter.TotalEnergy()
	// Expect ~1s active (rank 0) + ~1s idle (rank 1).
	want := plat.PowerActive(plat.FreqMax) + plat.PowerIdle(plat.FreqMax)
	if math.Abs(total-want) > 0.05*want {
		t.Errorf("energy %g want ~%g", total, want)
	}
}

func TestPhaseTagging(t *testing.T) {
	_, meter := run(t, 1, func(c *Comm) error {
		c.Compute(1e6)
		prev := c.SetPhase("reconstruct")
		if prev != "solve" {
			return fmt.Errorf("default phase %q", prev)
		}
		c.Compute(1e6)
		c.SetPhase(prev)
		return nil
	})
	by := meter.EnergyByPhase()
	if by["solve"] <= 0 || by["reconstruct"] <= 0 {
		t.Errorf("phase energies %v", by)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	meter := power.NewMeter(false)
	sentinel := errors.New("boom")
	_, err := Run(4, platform.Default(), meter, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks block on a collective; the abort must release them.
		c.Barrier()
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestRankPanicBecomesError(t *testing.T) {
	meter := power.NewMeter(false)
	_, err := Run(3, platform.Default(), meter, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		c.Recv(0, 1) // blocked forever unless aborted
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestCollectiveTimeChargedToClock(t *testing.T) {
	plat := platform.Default()
	maxClock, _ := run(t, 8, func(c *Comm) error {
		c.AllreduceScalarSum(1)
		return nil
	})
	if maxClock < plat.CollectiveTime(8, 8) {
		t.Errorf("clock %g below collective cost %g", maxClock, plat.CollectiveTime(8, 8))
	}
}

func TestManySequentialCollectives(t *testing.T) {
	// Generation bookkeeping must hold over many rounds.
	_, _ = run(t, 5, func(c *Comm) error {
		for i := 0; i < 200; i++ {
			got := c.AllreduceScalarSum(1)
			if got != 5 {
				return fmt.Errorf("round %d: %g", i, got)
			}
		}
		return nil
	})
}

func TestSendToInvalidRankPanics(t *testing.T) {
	meter := power.NewMeter(false)
	_, err := Run(2, platform.Default(), meter, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(5, 1, []float64{1})
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from invalid destination")
	}
}

func TestSetFreqNoopWhenUnchanged(t *testing.T) {
	plat := platform.Default()
	maxClock, _ := run(t, 1, func(c *Comm) error {
		c.SetFreq(plat.FreqMax) // already there: must not charge latency
		return nil
	})
	if maxClock != 0 {
		t.Errorf("no-op SetFreq advanced clock to %g", maxClock)
	}
}

func TestSetFreqClampsToLadder(t *testing.T) {
	plat := platform.Default()
	_, _ = run(t, 1, func(c *Comm) error {
		c.SetFreq(1.234)
		if c.Freq() != plat.ClampFreq(1.234) {
			return fmt.Errorf("freq %g", c.Freq())
		}
		c.SetFreq(-5)
		if c.Freq() != plat.FreqMin {
			return fmt.Errorf("underflow freq %g", c.Freq())
		}
		return nil
	})
}

func TestElapseHelpers(t *testing.T) {
	plat := platform.Default()
	_, meter := run(t, 1, func(c *Comm) error {
		c.ElapseActive(1)
		c.ElapseIdle(1)
		return nil
	})
	want := plat.PowerActive(plat.FreqMax) + plat.PowerIdle(plat.FreqMax)
	if got := meter.TotalEnergy(); math.Abs(got-want) > 1e-9 {
		t.Errorf("energy %g want %g", got, want)
	}
}

func TestMixedCollectiveAndP2P(t *testing.T) {
	// Interleaving p2p traffic with collectives must not confuse either.
	_, _ = run(t, 4, func(c *Comm) error {
		next := (c.Rank() + 1) % 4
		prev := (c.Rank() + 3) % 4
		for i := 0; i < 20; i++ {
			c.Send(next, 7, []float64{float64(c.Rank()*100 + i)})
			got := c.Recv(prev, 7)
			if int(got[0]) != prev*100+i {
				return fmt.Errorf("iteration %d: got %v", i, got)
			}
			sum := c.AllreduceScalarSum(1)
			if sum != 4 {
				return fmt.Errorf("allreduce %g", sum)
			}
		}
		return nil
	})
}

func TestZeroRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRuntime(0, 0, platform.Default(), power.NewMeter(false))
}
