package fault

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassTaxonomy(t *testing.T) {
	soft := []Class{DCE, DUE, SDC}
	hard := []Class{SWO, SNF, LNF}
	for _, c := range soft {
		if !c.IsSoft() {
			t.Errorf("%v must be soft", c)
		}
	}
	for _, c := range hard {
		if c.IsSoft() {
			t.Errorf("%v must be hard", c)
		}
	}
	if len(Classes()) != 6 {
		t.Error("six classes expected")
	}
	if SNF.String() != "SNF" || Class(99).String() == "SNF" {
		t.Error("String() wrong")
	}
}

func TestEffectOf(t *testing.T) {
	if EffectOf(SDC) != EffectCorrupt || EffectOf(DCE) != EffectCorrupt {
		t.Error("soft data corruption must corrupt")
	}
	for _, c := range []Class{DUE, SWO, SNF, LNF} {
		if EffectOf(c) != EffectLose {
			t.Errorf("%v must lose data", c)
		}
	}
}

func TestApplyLose(t *testing.T) {
	x := []float64{1, 2, 3}
	Apply(EffectLose, x, rand.New(rand.NewSource(1)))
	for _, v := range x {
		if v != 0 {
			t.Fatal("EffectLose must zero the block")
		}
	}
}

func TestApplyCorruptChangesData(t *testing.T) {
	x := make([]float64, 50)
	for i := range x {
		x[i] = 1
	}
	orig := append([]float64(nil), x...)
	Apply(EffectCorrupt, x, rand.New(rand.NewSource(2)))
	changed := 0
	for i := range x {
		if x[i] != orig[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("EffectCorrupt changed nothing")
	}
}

func TestApplyDeterministic(t *testing.T) {
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i], b[i] = float64(i), float64(i)
	}
	Apply(EffectCorrupt, a, rand.New(rand.NewSource(3)))
	Apply(EffectCorrupt, b, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("corruption not deterministic in seed")
		}
	}
}

// --- MTBF / Figure 1 --------------------------------------------------

func TestSystemMTBFScaling(t *testing.T) {
	// System MTBF must scale inversely with node count.
	m1 := SystemMTBF(SNF, 1000, TechPetascale)
	m2 := SystemMTBF(SNF, 2000, TechPetascale)
	if math.Abs(m1/m2-2) > 1e-12 {
		t.Errorf("MTBF scaling %g", m1/m2)
	}
}

func TestFig1PaperClaims(t *testing.T) {
	// Hard-failure MTBF at petascale: the paper cites 1-7 days.
	snf := SystemMTBF(SNF, PetascaleNodes, TechPetascale)
	if snf < 24 || snf > 7*24 {
		t.Errorf("petascale SNF MTBF %g h, want 1-7 days", snf)
	}
	// Exascale: within an hour.
	snfEx := SystemMTBF(SNF, ExascaleNodes, TechExascale)
	if snfEx > 1.01 {
		t.Errorf("exascale SNF MTBF %g h, want <= ~1 h", snfEx)
	}
	rows := ProjectFig1()
	if len(rows) != 6 {
		t.Fatalf("Fig1 rows %d", len(rows))
	}
	for _, r := range rows {
		if r.ExascaleHours >= r.PetascaleHours {
			t.Errorf("%v: exascale MTBF must shrink (%g vs %g)",
				r.Class, r.ExascaleHours, r.PetascaleHours)
		}
	}
	// Combined MTBF is below every individual class MTBF.
	comb := CombinedSystemMTBF(PetascaleNodes, TechPetascale)
	for _, r := range rows {
		if comb > r.PetascaleHours {
			t.Errorf("combined %g exceeds %v %g", comb, r.Class, r.PetascaleHours)
		}
	}
}

func TestTechDegradationSoftWorse(t *testing.T) {
	// Miniaturization hurts soft faults more than hard ones.
	softRatio := NodeMTBF(SDC, TechPetascale) / NodeMTBF(SDC, TechExascale)
	hardRatio := NodeMTBF(SNF, TechPetascale) / NodeMTBF(SNF, TechExascale)
	if softRatio <= hardRatio {
		t.Errorf("soft degradation %g must exceed hard %g", softRatio, hardRatio)
	}
}

// --- injectors ---------------------------------------------------------

func TestScheduleEvenSpacing(t *testing.T) {
	faults := Evenly(10, 1100, 8, 1, SNF)
	if len(faults) != 10 {
		t.Fatalf("%d faults", len(faults))
	}
	for i, f := range faults {
		want := (i + 1) * 1100 / 11
		if f.Iter != want {
			t.Errorf("fault %d at iter %d want %d", i, f.Iter, want)
		}
		if f.Rank < 0 || f.Rank >= 8 {
			t.Errorf("fault %d on rank %d", i, f.Rank)
		}
	}
}

func TestScheduleCheckFiresOnce(t *testing.T) {
	s := NewSchedule(Evenly(2, 100, 4, 1, SNF))
	fired := 0
	for iter := 0; iter <= 200; iter++ {
		if f := s.Check(iter, float64(iter)); f != nil {
			fired++
			if f.Time != float64(iter) {
				t.Error("fault time not stamped")
			}
		}
	}
	if fired != 2 {
		t.Errorf("fired %d", fired)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := Evenly(5, 500, 16, 42, SNF)
	b := Evenly(5, 500, 16, 42, SNF)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("schedules differ for same seed")
		}
	}
}

func TestScheduleSingleFault(t *testing.T) {
	s := NewSchedule([]Fault{{Class: SDC, Rank: 3, Iter: 200}})
	if f := s.Check(100, 0); f != nil {
		t.Error("fired early")
	}
	f := s.Check(200, 1.5)
	if f == nil || f.Rank != 3 || f.Class != SDC {
		t.Fatalf("got %v", f)
	}
	if s.Check(201, 2) != nil {
		t.Error("fired twice")
	}
}

func TestPoissonRate(t *testing.T) {
	// Over a long horizon the empirical rate must match 1/MTBF.
	mtbf := 10.0
	p := NewPoisson(mtbf, 4, SNF, 7)
	horizon := 10000.0
	dt := 0.5 // iteration duration; several iterations per MTBF
	count := 0
	iter := 0
	for clock := 0.0; clock < horizon; clock += dt {
		if f := p.Check(iter, clock); f != nil {
			count++
		}
		iter++
	}
	expected := horizon / mtbf
	if math.Abs(float64(count)-expected) > 4*math.Sqrt(expected) {
		t.Errorf("Poisson count %d, expected ~%g", count, expected)
	}
}

func TestPoissonLimit(t *testing.T) {
	p := NewPoisson(0.001, 2, SNF, 1).WithLimit(3)
	count := 0
	for i := 0; i < 10000; i++ {
		if p.Check(i, float64(i)) != nil {
			count++
		}
	}
	if count != 3 {
		t.Errorf("limit ignored: %d faults", count)
	}
}

func TestPoissonAtMostOnePerCheck(t *testing.T) {
	// Even if many arrivals fall in one step, each Check yields one fault.
	p := NewPoisson(0.01, 2, SNF, 3)
	if f := p.Check(0, 1000); f == nil {
		t.Fatal("expected a fault")
	}
	// The next fault arrives on the next check, not the same one.
	if f := p.Check(1, 1000); f == nil {
		t.Fatal("back-to-back fault expected on next check")
	}
}

func TestEmptyScheduleNeverFires(t *testing.T) {
	s := NewSchedule(nil)
	for iter := 0; iter < 100; iter++ {
		if s.Check(iter, float64(iter)) != nil {
			t.Fatal("an empty schedule fired")
		}
	}
}

// Property: schedule iterations are non-decreasing and within bounds.
func TestQuickScheduleSorted(t *testing.T) {
	f := func(seed int64) bool {
		count := 1 + int(seed%9+9)%9
		ff := 10 + int(seed%991+991)%991
		faults := Evenly(count, ff, 4, seed, SNF)
		prev := 0
		for _, fa := range faults {
			if fa.Iter < prev || fa.Iter < 1 || fa.Iter > ff {
				return false
			}
			prev = fa.Iter
		}
		return len(faults) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScheduleClasses(t *testing.T) {
	classes := []Class{SNF, SNF, SWO}
	faults := Evenly(7, 700, 4, 1, classes...)
	if len(faults) != 7 {
		t.Fatalf("%d faults", len(faults))
	}
	for i, f := range faults {
		if f.Class != classes[i%3] {
			t.Errorf("fault %d class %v want %v", i, f.Class, classes[i%3])
		}
	}
}

func TestScheduleClassesPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evenly(3, 100, 2, 1)
}
