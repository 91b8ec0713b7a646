package cluster

import (
	"testing"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// BenchmarkClusterStep is one bidirectional ring exchange over the
// blocking Send/RecvInto path (8-float payloads) plus a scalar allreduce
// per op at 16 ranks. The solver's halo goes through Halo plans, so its
// benchmarks never reach the tagged queues; this is the pin for that
// setup-time path at width, and scripts/check.sh gates it at 0 allocs/op.
func BenchmarkClusterStep(b *testing.B) {
	const p = 16
	b.ReportAllocs()
	_, err := Run(p, platform.Default(), power.NewMeter(false), func(c *Comm) error {
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		buf := make([]float64, 8)
		got := make([]float64, 8)
		for i := range buf {
			buf[i] = float64(c.Rank()) + float64(i)/8
		}
		step := func() {
			c.Send(next, 1, buf)
			c.RecvInto(prev, 1, got)
			c.Send(prev, 2, buf)
			c.RecvInto(next, 2, got)
			c.AllreduceScalarSum(got[0])
		}
		// Warm-up fills every queue's buffer free list; only rank 0
		// touches b, between two barriers that order it against every
		// rank's timed loop.
		for i := 0; i < 100; i++ {
			step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			step()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
