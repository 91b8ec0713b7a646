package cluster

import (
	"math"
	"testing"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// pin is the committed outcome of one workload at one rank count. The
// workloads end on a collective, so every rank finishes on the same
// clock; root is the value rank 0 stored and rest the one every other
// rank did. The constants were produced alike by both rank schedulers the
// tree once had; a cost-model or reduction-order change has to edit them.
type pin struct {
	clock, energy float64
	root, rest    float64
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
			value := want.rest
			if r == 0 {
				value = want.root
			}
			if !same(out[r], value) {
				t.Errorf("p=%d run %d rank %d: value %x, want %x", p, run, r, out[r], value)
			}
		}
	}
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

// TestMixedWorkloadPinned: final clocks, metered energy and all computed
// values of a workload touching every primitive are the same bits on
// every run, for several rank counts.
func TestMixedWorkloadPinned(t *testing.T) {
	for p, want := range mixedWorkloadPins {
		checkPinned(t, p, mixedWorkload, want)
	}
}

var mixedWorkloadPins = map[int]pin{
	1:  {clock: 0x1.108909da85e5p-09, energy: 0x1.1530d519fe5d3p-06, root: 0x1.4p+03},
	2:  {clock: 0x1.5340ac8318bfp-09, energy: 0x1.6884573620873p-05, root: 0x1.38p+07, rest: 0x1.ap+05},
	3:  {clock: 0x1.95f84f2bab991p-09, energy: 0x1.4ce1e2fdb204fp-04, root: 0x1.52p+09, rest: 0x1.52p+07},
	4:  {clock: 0x1.d78186777240fp-09, energy: 0x1.06e1af387d818p-03, root: 0x1.e1aaaaaaaaaaap+10, rest: 0x1.8155555555555p+08},
	8:  {clock: 0x1.6f6a6781ac896p-08, energy: 0x1.ab6cb7f4a3118p-02, root: 0x1.8f3af8af8af8bp+14, rest: 0x1.62df15f15f15fp+11},
	13: {clock: 0x1.09ec53b6c1a32p-07, energy: 0x1.01207d520ef22p+00, root: 0x1.40889195766ebp+17, rest: 0x1.6e52ef863e355p+13},
}
