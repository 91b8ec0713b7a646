package cluster

import (
	"fmt"
	"math"
	"testing"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// TestScalarFastPathMatchesVector checks that the allocation-free scalar
// collectives return the same values and charge the same virtual time as
// AllreduceSum over the same contributions, including when scalar and
// vector generations interleave: one rendezvous serves every length.
func TestScalarFastPathMatchesVector(t *testing.T) {
	const p = 5
	vals := []float64{1e-16, -3.25, 7.5, 1e16, -1e16}
	clockScalar := make([]float64, p)
	clockVector := make([]float64, p)

	_, _ = run(t, p, func(c *Comm) error {
		c.Compute(int64(500 * (c.Rank() + 1)))
		sv := c.AllreduceScalarSum(vals[c.Rank()])
		pair := c.AllreduceSum([]float64{vals[c.Rank()], float64(c.Rank())})
		a, b := pair[0], pair[1]
		clockScalar[c.Rank()] = c.Clock()

		// Interleave a vector collective between scalar generations.
		vv := c.AllreduceSum([]float64{vals[c.Rank()]})
		if sv != vv[0] || a != vv[0] {
			return fmt.Errorf("rank %d: scalar %v/%v != vector %v", c.Rank(), sv, a, vv[0])
		}
		if want := float64(p*(p-1)) / 2; b != want {
			return fmt.Errorf("rank %d: pair second sum %v, want %v", c.Rank(), b, want)
		}
		s2 := c.AllreduceScalarSum(1)
		if s2 != p {
			return fmt.Errorf("rank %d: post-interleave scalar sum %v, want %d", c.Rank(), s2, p)
		}
		return nil
	})

	// The scalar path must charge the identical collective cost as the
	// equivalent vector calls.
	_, _ = run(t, p, func(c *Comm) error {
		c.Compute(int64(500 * (c.Rank() + 1)))
		_ = c.AllreduceSum([]float64{vals[c.Rank()]})
		_ = c.AllreduceSum([]float64{vals[c.Rank()], float64(c.Rank())})
		clockVector[c.Rank()] = c.Clock()
		return nil
	})
	for r := 0; r < p; r++ {
		if math.Float64bits(clockScalar[r]) != math.Float64bits(clockVector[r]) {
			t.Fatalf("rank %d: scalar-path clock %v != vector-path clock %v", r, clockScalar[r], clockVector[r])
		}
	}

	// Lengths on both sides of the inline-result boundary, each between two
	// scalar generations: the sum is the rank-order sum from +0, and a
	// collective entered on level clocks costs CollectiveTime(8*len).
	plat := platform.Default()
	_, _ = run(t, p, func(c *Comm) error {
		for _, n := range []int{0, 1, 2, 3, 64, 257} {
			if got := c.AllreduceScalarSum(float64(n)); got != float64(p*n) {
				return fmt.Errorf("len %d: scalar generation before got %v", n, got)
			}
			mine := make([]float64, n)
			want := make([]float64, n)
			for i := range mine {
				mine[i] = vals[c.Rank()] * float64(i+1)
				for r := 0; r < p; r++ {
					want[i] += vals[r] * float64(i+1)
				}
			}
			before := c.Clock()
			got := c.AllreduceSum(mine)
			if len(got) != n {
				return fmt.Errorf("len %d: got %d values", n, len(got))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("len %d elem %d: got %x, want %x", n, i, got[i], want[i])
				}
			}
			if wantClock := before + plat.CollectiveTime(int64(8*n), p); math.Float64bits(c.Clock()) != math.Float64bits(wantClock) {
				return fmt.Errorf("len %d: clock %x, want %x", n, c.Clock(), wantClock)
			}
			if pair := c.AllreduceSum([]float64{1, float64(c.Rank())}); pair[0] != p || pair[1] != float64(p*(p-1))/2 {
				return fmt.Errorf("len %d: pair generation after got %v, %v", n, pair[0], pair[1])
			}
		}
		return nil
	})
}

// TestAllreduceSumResultOutlivesLaterCollectives: LSI reads its reduced
// vector after two more barriers have gone by, so the slice AllreduceSum
// returns must not be a view of a generation slot that later collectives
// reuse, whatever its length.
func TestAllreduceSumResultOutlivesLaterCollectives(t *testing.T) {
	const p = 4
	_, _ = run(t, p, func(c *Comm) error {
		for _, n := range []int{1, 2, 3, 100} {
			mine := make([]float64, n)
			for i := range mine {
				mine[i] = float64(c.Rank() + i)
			}
			sum := c.AllreduceSum(mine)
			c.AllreduceScalarSum(1e9)
			c.AllreduceSum([]float64{-1e9, 7})
			c.Barrier()
			for i, got := range sum {
				if want := float64(p*(p-1))/2 + float64(p*i); got != want {
					return fmt.Errorf("len %d elem %d: %v after later collectives, want %v", n, i, got, want)
				}
			}
		}
		return nil
	})
}

// TestRecvInto checks the pooled receive path: payload contents, arrival
// clock, and buffer reuse across repeated exchanges.
func TestRecvInto(t *testing.T) {
	const rounds = 10
	_, _ = run(t, 2, func(c *Comm) error {
		buf := make([]float64, 3)
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(1, 5, []float64{float64(i), float64(2 * i), -1})
			} else {
				before := c.Clock()
				c.RecvInto(0, 5, buf)
				if c.Clock() < before {
					return fmt.Errorf("clock moved backwards on recv")
				}
				if buf[0] != float64(i) || buf[1] != float64(2*i) || buf[2] != -1 {
					return fmt.Errorf("round %d: got %v", i, buf)
				}
			}
		}
		return nil
	})
}

// TestRecvIntoLengthMismatch ensures a wrong-size destination panics with
// a diagnostic rather than silently truncating.
func TestRecvIntoLengthMismatch(t *testing.T) {
	_, err := Run(2, platform.Default(), power.NewMeter(true), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1, 2, 3})
		} else {
			dst := make([]float64, 2)
			c.RecvInto(0, 1, dst)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error from mismatched RecvInto length")
	}
}
