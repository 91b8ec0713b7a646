package cluster

import (
	"math"
	"reflect"
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

// checkPinned runs fn twice on p ranks at each token count of
// tokenCounts(p) and requires every run bitwise equal to want: neither
// host scheduling nor the number of tokens may reach a clock, a joule or
// a computed value.
func checkPinned(t *testing.T, p int, fn func(c *Comm, out []float64) error, want pin) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	defer forceTokens(0)() // restores the setting after a fatal failure too
	for _, w := range tokenCounts(p) {
		forcedTokens.Store(int32(w))
		for run := 0; run < 2; run++ {
			meter := power.NewMeter(true)
			clocks, out := make([]float64, p), make([]float64, p)
			_, err := Run(p, platform.Default(), meter, func(c *Comm) error {
				err := fn(c, out)
				clocks[c.Rank()] = c.Clock()
				return err
			})
			if err != nil {
				t.Fatalf("p=%d W=%d run %d: %v", p, w, run, err)
			}
			if energy := meter.TotalEnergy(); !same(energy, want.energy) {
				t.Errorf("p=%d W=%d run %d: energy %x, want %x", p, w, run, energy, want.energy)
			}
			for r := range clocks {
				if !same(clocks[r], want.clock) {
					t.Errorf("p=%d W=%d run %d rank %d: clock %x, want %x", p, w, run, r, clocks[r], want.clock)
				}
				if !same(out[r], want.value) {
					t.Errorf("p=%d W=%d run %d rank %d: value %x, want %x", p, w, run, r, out[r], want.value)
				}
			}
		}
	}
}

// mixedWorkload exercises every blocking primitive: compute, scalar, pair
// and vector allreduces, blocking p2p both ways round a ring, a
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

	// The other way round, with compute between the send and the receive.
	c.Send(prev, 9, []float64{acc})
	c.Compute(500_000)
	back := make([]float64, 1)
	c.RecvInto(next, 9, back)
	acc += back[0]

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
	1:  {clock: 0x1.10bb6c7fd7f3bp-09, energy: 0x1.156fd068a4efap-06, value: 0x1.4p+01},
	2:  {clock: 0x1.530e49ddc6b05p-09, energy: 0x1.68455be779f4dp-05, value: 0x1.ap+04},
	3:  {clock: 0x1.9561273bb56cfp-09, energy: 0x1.4c542d8cbb3b9p-04, value: 0x1.52p+06},
	4:  {clock: 0x1.d6ea5e877c14dp-09, energy: 0x1.0683364283a5fp-03, value: 0x1.8155555555555p+07},
	8:  {clock: 0x1.6eec70e45f64ap-08, energy: 0x1.aacf43b002a38p-02, value: 0x1.62df15f15f15fp+10},
	13: {clock: 0x1.0994271572096p-07, energy: 0x1.00c6effe3a1a2p+00, value: 0x1.6e52ef863e355p+12},
}

// TestMeterSegmentsDeterministic: a meter that retains segments hands
// them back in the same order with the same bits on every run, and so
// does the power timeline built from them, however the host happens to
// interleave the ranks' records.
func TestMeterSegmentsDeterministic(t *testing.T) {
	const p, runs = 16, 30
	var first []power.Segment
	var firstWatts []uint64
	for run := 0; run < runs; run++ {
		meter := power.NewMeter(true)
		out := make([]float64, p)
		if _, err := Run(p, platform.Default(), meter, func(c *Comm) error { return mixedWorkload(c, out) }); err != nil {
			t.Fatal(err)
		}
		segs := meter.Segments()
		var watts []uint64
		for _, s := range meter.Timeline(meter.Span() / 64) {
			watts = append(watts, math.Float64bits(s.Watts))
		}
		if run == 0 {
			first, firstWatts = segs, watts
			continue
		}
		if !reflect.DeepEqual(segs, first) {
			t.Fatalf("run %d: segment list differs from run 0", run)
		}
		if !reflect.DeepEqual(watts, firstWatts) {
			t.Fatalf("run %d: timeline watts differ from run 0", run)
		}
	}
}
