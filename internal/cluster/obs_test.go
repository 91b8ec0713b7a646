package cluster

import (
	"math"
	"testing"

	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
)

// runObserved mirrors the run helper but attaches a recorder.
func runObserved(t *testing.T, p int, rec *obs.Recorder, fn func(c *Comm) error) (float64, *power.Meter) {
	t.Helper()
	meter := power.NewMeter(true)
	rt := NewRuntime(p, 0, platform.Default(), meter)
	rt.SetRecorder(rec)
	maxClock, err := rt.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	return maxClock, meter
}

// TestObsExactCounts pins the per-rank counters and span taxonomy of a
// fully known exchange: one blocking send, one blocking receive, one
// scalar allreduce, one compute block per rank.
func TestObsExactCounts(t *testing.T) {
	rec := obs.NewRecorder()
	runObserved(t, 2, rec, func(c *Comm) error {
		c.Compute(1000)
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			c.Recv(0, 7)
		}
		c.AllreduceScalarSum(1)
		return nil
	})

	ms := rec.Metrics()
	if len(ms) != 2 {
		t.Fatalf("metrics for %d ranks, want 2", len(ms))
	}
	m0, m1 := ms[0], ms[1]
	if m0.MsgsSent != 1 || m0.BytesSent != 24 {
		t.Errorf("rank 0 send counters: %+v", m0)
	}
	if m0.MsgsRecv != 0 || m1.MsgsRecv != 1 || m1.BytesRecv != 24 {
		t.Errorf("recv counters: %+v / %+v", m0, m1)
	}
	if m0.Collectives != 1 || m1.Collectives != 1 {
		t.Errorf("collective counters: %+v / %+v", m0, m1)
	}
	if m0.Flops != 1000 || m1.Flops != 1000 {
		t.Errorf("flop counters: %+v / %+v", m0, m1)
	}

	// Span kinds per rank: the sender has compute+send+collective, the
	// receiver compute+recv+collective (the receiver blocks, so its recv
	// wait has positive duration — Send costs time the receiver spends
	// blocked on arrival).
	kindsOf := func(r int) map[obs.SpanKind]int {
		ks := map[obs.SpanKind]int{}
		for _, s := range rec.RankSpans(r) {
			ks[s.Kind]++
		}
		return ks
	}
	k0, k1 := kindsOf(0), kindsOf(1)
	if k0[obs.SpanCompute] != 1 || k0[obs.SpanSend] != 1 || k0[obs.SpanCollective] != 1 {
		t.Errorf("rank 0 span kinds: %v", k0)
	}
	if k1[obs.SpanCompute] != 1 || k1[obs.SpanRecv] != 1 || k1[obs.SpanCollective] != 1 {
		t.Errorf("rank 1 span kinds: %v", k1)
	}
	if k0[obs.SpanRecv] != 0 || k1[obs.SpanSend] != 0 {
		t.Errorf("span kinds crossed ranks: %v / %v", k0, k1)
	}
}

// TestObsPurityCluster verifies the zero-perturbation contract at the
// runtime layer: identical final clocks, total energy, and per-segment
// power trace with and without a recorder attached.
func TestObsPurityCluster(t *testing.T) {
	workload := func(c *Comm) error {
		c.Compute(int64(2000 * (c.Rank() + 1)))
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		c.Send(next, 3, []float64{float64(c.Rank())})
		c.Recv(prev, 3)
		h := testHalo(c, others(c), fixed(2))
		h.Send()
		for i := range others(c) {
			h.Recv(i)
		}
		c.AllreduceScalarSum(float64(c.Rank()))
		return nil
	}

	bareClock, bareMeter := run(t, 4, workload)
	rec := obs.NewRecorder()
	obsClock, obsMeter := runObserved(t, 4, rec, workload)

	if math.Float64bits(bareClock) != math.Float64bits(obsClock) {
		t.Errorf("final clock drift: %v vs %v", bareClock, obsClock)
	}
	if be, oe := bareMeter.TotalEnergy(), obsMeter.TotalEnergy(); math.Float64bits(be) != math.Float64bits(oe) {
		t.Errorf("energy drift: %v vs %v", be, oe)
	}
	bs, os := bareMeter.Segments(), obsMeter.Segments()
	if len(bs) != len(os) {
		t.Fatalf("segment count drift: %d vs %d", len(bs), len(os))
	}
	for i := range bs {
		if bs[i] != os[i] {
			t.Fatalf("segment %d drift: %+v vs %+v", i, bs[i], os[i])
		}
	}
	if rec.SpanCount() == 0 {
		t.Error("observed run recorded no spans")
	}
}
