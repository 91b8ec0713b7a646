package cluster

import (
	"math"
	"testing"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// pin is the committed outcome of one workload at one rank count. The
// workloads end on a collective, so every rank finishes on the same
// clock, and reduce their last value, so every rank stores the same one.
// The constants were produced alike by both rank schedulers the tree once
// had; a cost-model or reduction-order change has to edit them.
type pin struct {
	clock, energy, value float64
}

// checkPinned runs fn twice on p ranks and requires both runs bitwise
// equal to want: host scheduling must not reach a clock, a joule or a
// computed value.
func checkPinned(t *testing.T, p int, fn func(c *Comm, out []float64) error, want pin) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for run := 0; run < 2; run++ {
		meter := power.NewMeter(true)
		clocks, out := make([]float64, p), make([]float64, p)
		_, err := Run(p, platform.Default(), meter, func(c *Comm) error {
			err := fn(c, out)
			clocks[c.Rank()] = c.Clock()
			return err
		})
		if err != nil {
			t.Fatalf("p=%d run %d: %v", p, run, err)
		}
		if energy := meter.TotalEnergy(); !same(energy, want.energy) {
			t.Errorf("p=%d run %d: energy %x, want %x", p, run, energy, want.energy)
		}
		for r := range clocks {
			if !same(clocks[r], want.clock) {
				t.Errorf("p=%d run %d rank %d: clock %x, want %x", p, run, r, clocks[r], want.clock)
			}
			if !same(out[r], want.value) {
				t.Errorf("p=%d run %d rank %d: value %x, want %x", p, run, r, out[r], want.value)
			}
		}
	}
}

// mixedWorkload exercises every blocking primitive: compute, scalar, pair
// and vector allreduces, blocking and nonblocking p2p in a ring, a
// frequency change mid-run and a closing barrier.
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
	c.SetFreq(c.Freq() * 0.8)
	c.Compute(2_000_000)
	c.Barrier()
	out[rank] = acc
	return nil
}

// TestMixedWorkloadPinned: final clocks, metered energy and all computed
// values of a workload touching every primitive are the same bits on
// every run, for several rank counts.
func TestMixedWorkloadPinned(t *testing.T) {
	for p, want := range mixedWorkloadPins {
		checkPinned(t, p, mixedWorkload, want)
	}
}

var mixedWorkloadPins = map[int]pin{
	1:  {clock: 0x1.108909da85e5p-09, energy: 0x1.1530d519fe5d3p-06, value: 0x1.4p+01},
	2:  {clock: 0x1.52dbe73874a19p-09, energy: 0x1.68066098d3627p-05, value: 0x1.ap+04},
	3:  {clock: 0x1.952ec496635e3p-09, energy: 0x1.4c24f111be4ddp-04, value: 0x1.52p+06},
	4:  {clock: 0x1.d6b7fbe22a061p-09, energy: 0x1.0663b89b305ccp-03, value: 0x1.8155555555555p+07},
	8:  {clock: 0x1.6ed33f91b65d4p-08, energy: 0x1.aaafc608af5a7p-02, value: 0x1.62df15f15f15fp+10},
	13: {clock: 0x1.09878e6c1d85bp-07, energy: 0x1.00ba24f240446p+00, value: 0x1.6e52ef863e355p+12},
}
