package power

import (
	"math/rand"
	"testing"
)

func TestGapsDetection(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(2)
	// Core 0: contiguous, then a 0.5s hole, then more work. Core 1: solid.
	record(m, 0, "solve", 0, 1, 10)
	record(m, 0, "solve", 1, 0.5, 20) // different watts: not coalesced
	record(m, 0, "solve", 2, 1, 10)   // hole (1.5, 2)
	record(m, 1, "solve", 0.25, 3, 5) // leading idle is not a gap
	gaps := m.Gaps(1e-9)
	if len(gaps) != 1 {
		t.Fatalf("got %d gaps %v, want 1", len(gaps), gaps)
	}
	g := gaps[0]
	if g.Core != 0 || g.Start != 1.5 || g.End != 2 {
		t.Errorf("gap %+v, want core 0 over (1.5, 2)", g)
	}
	// A tolerance wider than the hole suppresses it.
	if gs := m.Gaps(0.6); len(gs) != 0 {
		t.Errorf("tol 0.6 still reports %v", gs)
	}
}

func TestGapsCoveredOutOfOrder(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(3)
	// Overlapping and out-of-order segments on one core still count as
	// full coverage: Gaps sorts and tracks the running max end.
	record(m, 2, "solve", 1, 1, 10)
	record(m, 2, "ckpt", 0, 1.5, 10)
	record(m, 2, "solve", 2, 1, 10)
	if gaps := m.Gaps(1e-9); len(gaps) != 0 {
		t.Errorf("covered timeline reports gaps %v", gaps)
	}
}

// TestCoalescingSurvivesInterleaving: another core recording in between
// two contiguous same-power segments must not defeat their merge — the
// retained list per core is a pure function of that core's program order.
func TestCoalescingSurvivesInterleaving(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(2)
	record(m, 0, "solve", 0, 1, 10)
	record(m, 1, "solve", 0, 2, 5)
	record(m, 0, "solve", 1, 1, 10)
	segs := m.Segments()
	if len(segs) != 2 {
		t.Fatalf("got %d segments %v, want 2 (core 0 coalesced)", len(segs), segs)
	}
	for _, s := range segs {
		if s.Core == 0 && (s.Start != 0 || s.Dur != 2) {
			t.Errorf("core 0 segment %+v, want one merged (0, 2)", s)
		}
	}
}

func TestGapsPanicsWithoutSegments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gaps on a segment-less meter must panic, not report full coverage")
		}
	}()
	NewMeter(false).Gaps(1e-9)
}

// TestEnergyDeterministicUnderRaces drives many goroutines through
// disjoint cores in random interleavings and demands bit-identical totals:
// the per-core accumulation plus sorted reduction must erase scheduling
// order from the float sums.
func TestEnergyDeterministicUnderRaces(t *testing.T) {
	const cores, recs = 8, 200
	runOnce := func(seed int64) (float64, map[string]float64) {
		m := NewMeter(false)
		m.Reserve(cores)
		done := make(chan struct{}, cores)
		for c := 0; c < cores; c++ {
			go func(c int) {
				r := rand.New(rand.NewSource(seed + int64(c)))
				h := m.Core(c)
				clock := 0.0
				for i := 0; i < recs; i++ {
					d := r.Float64()/3 + 1e-4
					ph := "solve"
					if i%7 == 0 {
						ph = "reconstruct"
					}
					h.SetPhase(ph)
					h.Record(clock, d, 10+r.Float64())
					clock += d
				}
				done <- struct{}{}
			}(c)
		}
		for c := 0; c < cores; c++ {
			<-done
		}
		return m.TotalEnergy(), m.EnergyByPhase()
	}

	e0, p0 := runOnce(42)
	for i := 0; i < 5; i++ {
		e, p := runOnce(42)
		if e != e0 {
			t.Fatalf("total energy drifted across schedules: %v vs %v", e, e0)
		}
		for ph, v := range p0 {
			if p[ph] != v {
				t.Fatalf("phase %q drifted: %v vs %v", ph, p[ph], v)
			}
		}
	}
}
