package power

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeterTotals(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(2)
	m.Record(0, "solve", 0, 2, 10) // 20 J
	m.Record(1, "solve", 0, 2, 10) // 20 J
	m.Record(0, "ckpt", 2, 1, 5)   // 5 J
	if got := m.TotalEnergy(); got != 45 {
		t.Errorf("total %g want 45", got)
	}
	by := m.EnergyByPhase()
	if by["solve"] != 40 || by["ckpt"] != 5 {
		t.Errorf("by phase %v", by)
	}
	if m.Span() != 3 {
		t.Errorf("span %g", m.Span())
	}
}

func TestMeterCoalescing(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(1)
	m.Record(0, "solve", 0, 1, 10)
	m.Record(0, "solve", 1, 1, 10) // contiguous, same power: coalesce
	m.Record(0, "solve", 2, 1, 20) // different power: new segment
	segs := m.Segments()
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2: %v", len(segs), segs)
	}
	if segs[0].Dur != 2 {
		t.Errorf("coalesced duration %g", segs[0].Dur)
	}
}

func TestMeterZeroDurationIgnored(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(1)
	m.Record(0, "solve", 0, 0, 10)
	if len(m.Segments()) != 0 || m.TotalEnergy() != 0 {
		t.Error("zero-duration segment recorded")
	}
}

func TestMeterPanicsOnNegative(t *testing.T) {
	m := NewMeter(false)
	m.Reserve(1)
	for _, fn := range []func(){
		func() { m.Record(0, "x", 0, -1, 1) },
		func() { m.Record(0, "x", 0, 1, -1) },
		func() { m.Record(0, "x", 0, math.NaN(), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestMeterRecordNeedsReserve: the lock-free record path has no fallback,
// so a record on a core outside the reserved range panics by name instead
// of racing to grow the table.
func TestMeterRecordNeedsReserve(t *testing.T) {
	m := NewMeter(false)
	m.Reserve(2)
	for _, core := range []int{2, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "which Reserve did not reserve") {
					t.Errorf("core %d: want the unreserved-core panic, got %q", core, msg)
				}
			}()
			m.Record(core, "solve", 0, 1, 10)
		}()
	}
}

func TestMeterNoSegmentsMode(t *testing.T) {
	m := NewMeter(false)
	m.Reserve(1)
	m.Record(0, "solve", 0, 1, 10)
	if len(m.Segments()) != 0 {
		t.Error("segments retained in aggregate mode")
	}
	if m.TotalEnergy() != 10 {
		t.Error("aggregate energy lost")
	}
	if m.Timeline(0.1) != nil {
		t.Error("timeline must be empty without segments")
	}
}

func TestMeterConcurrentRecording(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(8)
	var wg sync.WaitGroup
	for core := 0; core < 8; core++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Record(c, "solve", float64(i), 1, 2)
			}
		}(core)
	}
	wg.Wait()
	if got := m.TotalEnergy(); got != 8*100*2 {
		t.Errorf("concurrent total %g want 1600", got)
	}
}

// Property: timeline bins conserve energy.
func TestQuickTimelineConservesEnergy(t *testing.T) {
	f := func(durs []float64) bool {
		m := NewMeter(true)
		m.Reserve(3)
		t0 := 0.0
		for i, d := range durs {
			d = math.Mod(math.Abs(d), 5) + 0.01
			m.Record(i%3, "solve", t0, d, float64(i%4)+1)
			t0 += d / 2 // overlapping segments across cores
		}
		if m.Span() == 0 {
			return true
		}
		var sum float64
		for _, s := range m.Timeline(m.Span() / 37) {
			sum += s.Watts * m.Span() / 37
		}
		return math.Abs(sum-m.TotalEnergy()) < 1e-6*math.Max(1, m.TotalEnergy())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPhaseWindowsMerge(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(2)
	m.Record(0, "reconstruct", 1, 1, 5)
	m.Record(1, "reconstruct", 1.5, 1, 5) // overlaps -> merged
	m.Record(0, "reconstruct", 5, 1, 5)   // separate window
	ws := m.PhaseWindows("reconstruct")
	if len(ws) != 2 {
		t.Fatalf("windows %v", ws)
	}
	if ws[0][0] != 1 || math.Abs(ws[0][1]-2.5) > 1e-12 {
		t.Errorf("first window %v", ws[0])
	}
	if len(m.PhaseWindows("nope")) != 0 {
		t.Error("unknown phase must have no windows")
	}
}

func TestTimelinePanicsOnBadDt(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(1)
	m.Record(0, "solve", 0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Timeline(0)
}

func TestSegmentAccessors(t *testing.T) {
	s := Segment{Core: 1, Phase: "solve", Start: 2, Dur: 3, Watts: 4}
	if s.End() != 5 || s.Energy() != 12 {
		t.Errorf("End=%g Energy=%g", s.End(), s.Energy())
	}
}
