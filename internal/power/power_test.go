package power

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// record adds one segment to core through a fresh handle set to phase.
func record(m *Meter, core int, phase string, start, dur, watts float64) {
	h := m.Core(core)
	h.SetPhase(phase)
	h.Record(start, dur, watts)
}

func TestMeterTotals(t *testing.T) {
	m := NewMeter(true)
	m.Reserve(2)
	record(m, 0, "solve", 0, 2, 10) // 20 J
	record(m, 1, "solve", 0, 2, 10) // 20 J
	record(m, 0, "ckpt", 2, 1, 5)   // 5 J
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
	record(m, 0, "solve", 0, 1, 10)
	record(m, 0, "solve", 1, 1, 10) // contiguous, same power: coalesce
	record(m, 0, "solve", 2, 1, 20) // different power: new segment
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
	record(m, 0, "solve", 0, 0, 10)
	if len(m.Segments()) != 0 || m.TotalEnergy() != 0 {
		t.Error("zero-duration segment recorded")
	}
}

func TestMeterPanicsOnNegative(t *testing.T) {
	m := NewMeter(false)
	m.Reserve(1)
	for _, fn := range []func(){
		func() { record(m, 0, "x", 0, -1, 1) },
		func() { record(m, 0, "x", 0, 1, -1) },
		func() { record(m, 0, "x", 0, math.NaN(), 1) },
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
			record(m, core, "solve", 0, 1, 10)
		}()
	}
}

// TestCorePhaseResolvedLazily: a handle resolves its phase's energy
// entry at the first record in the phase, so a phase that records
// nothing (or only zero durations) never appears in EnergyByPhase, and
// switching back to a phase keeps adding to its one entry.
func TestCorePhaseResolvedLazily(t *testing.T) {
	m := NewMeter(false)
	m.Reserve(1)
	h := m.Core(0)
	h.Record(0, 1, 10)
	h.SetPhase("empty")
	h.Record(1, 0, 10)
	h.SetPhase("ckpt")
	h.Record(1, 1, 5)
	h.SetPhase("solve")
	h.Record(2, 1, 10)
	by := m.EnergyByPhase()
	if len(by) != 2 || by["solve"] != 20 || by["ckpt"] != 5 {
		t.Errorf("by phase %v, want solve 20 and ckpt 5 only", by)
	}
	if got := h.Phase(); got != "solve" {
		t.Errorf("Phase() = %q", got)
	}
}

// TestReserveKeepsBoundCores: handles point into the core table, so once
// one is taken a Reserve that would move the table panics, and one that
// would not is a no-op.
func TestReserveKeepsBoundCores(t *testing.T) {
	m := NewMeter(false)
	m.Reserve(2)
	h := m.Core(1)
	m.Reserve(2)
	h.Record(0, 1, 10)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "would move") {
			t.Errorf("want the moved-core panic, got %q", msg)
		}
		if m.TotalEnergy() != 10 {
			t.Errorf("total %g want 10", m.TotalEnergy())
		}
	}()
	m.Reserve(3)
}

func TestMeterNoSegmentsMode(t *testing.T) {
	m := NewMeter(false)
	m.Reserve(1)
	record(m, 0, "solve", 0, 1, 10)
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
			h := m.Core(c)
			for i := 0; i < 100; i++ {
				h.Record(float64(i), 1, 2)
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
			record(m, i%3, "solve", t0, d, float64(i%4)+1)
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
	record(m, 0, "reconstruct", 1, 1, 5)
	record(m, 1, "reconstruct", 1.5, 1, 5) // overlaps -> merged
	record(m, 0, "reconstruct", 5, 1, 5)   // separate window
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
	record(m, 0, "solve", 0, 1, 1)
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
