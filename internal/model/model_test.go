package model

import (
	"math"
	"testing"
	"testing/quick"

	"resilience/internal/checkpoint"
	"resilience/internal/platform"
)

func baseParams() Params {
	return Params{
		TBase:  100,
		PBase:  1920, // 192 cores x 10 W
		N:      192,
		Lambda: 0.01, // one fault per 100 s: one expected fault per run
	}
}

func TestPredictFF(t *testing.T) {
	p := baseParams()
	pred, err := PredictFF(p)
	if err != nil {
		t.Fatal(err)
	}
	if pred.T != p.TBase || pred.P != p.PBase {
		t.Error("FF prediction must be the baseline")
	}
	if pred.E != p.TBase*p.PBase {
		t.Error("FF energy")
	}
}

func TestPredictRDEq12(t *testing.T) {
	p := baseParams()
	p.Replicas = 2
	pred, err := PredictRD(p)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TRes != 0 {
		t.Error("RD has no time overhead")
	}
	if math.Abs(pred.PNorm(p)-2) > 1e-12 {
		t.Errorf("RD power %g want 2x", pred.PNorm(p))
	}
	if math.Abs(pred.EResNorm(p)-1) > 1e-12 {
		t.Errorf("RD E_res %g want 1", pred.EResNorm(p))
	}
	// TMR.
	p.Replicas = 3
	pred3, _ := PredictRD(p)
	if math.Abs(pred3.PNorm(p)-3) > 1e-12 {
		t.Error("TMR power must be 3x")
	}
}

func TestPredictCREq9to11(t *testing.T) {
	p := baseParams()
	p.Levels = []Level{{TC: 0.5, IC: 10, PFrac: 0.8}}
	pred, err := PredictCR(p)
	if err != nil {
		t.Fatal(err)
	}
	// T_chkpt = 0.5 * 100/10 = 5; T_lost = 10/2 * 0.01 * 100 = 5.
	if math.Abs(pred.TRes-10) > 1e-9 {
		t.Errorf("CR T_res %g want 10", pred.TRes)
	}
	wantE := 5*0.8*p.PBase + 5*p.PBase
	if math.Abs(pred.ERes-wantE) > 1e-6 {
		t.Errorf("CR E_res %g want %g", pred.ERes, wantE)
	}
	if pred.P >= p.PBase {
		t.Error("CR average power must dip below baseline (cheap checkpoints)")
	}
}

func TestPredictCRValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		levels []Level
	}{
		{"no level", nil},
		{"no interval", []Level{{TC: 0.5, PFrac: 1}}},
		{"no write cost", []Level{{IC: 10, PFrac: 1}}},
		{"no power fraction", []Level{{TC: 0.5, IC: 10}}},
		{"power fraction above 1", []Level{{TC: 0.5, IC: 10, PFrac: 1.5}}},
		{"deeper level more often", []Level{{TC: 0.1, IC: 10, PFrac: 1}, {TC: 2, IC: 5, PFrac: 0.5}}},
	} {
		p := baseParams()
		p.Levels = tc.levels
		if _, err := PredictCR(p); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestPredictCRTwoLevels prices CR-2L by hand: buddy memory every 5 s at
// 0.1 s a write and full power, disk every 20 s at 2 s a write and half
// power. Every fourth memory write is replaced by the disk write.
func TestPredictCRTwoLevels(t *testing.T) {
	p := baseParams()
	p.Levels = []Level{{TC: 0.1, IC: 5, PFrac: 1}, {TC: 2, IC: 20, PFrac: 0.5}}
	pred, err := PredictCR(p)
	if err != nil {
		t.Fatal(err)
	}
	// Memory: 0.1*(100/5 - 100/20) = 1.5; disk: 2*100/20 = 10;
	// T_lost to the memory copy: 5/2 * 0.01 * 100 = 2.5.
	if math.Abs(pred.TRes-14) > 1e-9 {
		t.Errorf("CR-2L T_res %g want 14", pred.TRes)
	}
	wantE := (1.5*1 + 10*0.5 + 2.5) * p.PBase
	if math.Abs(pred.ERes-wantE) > 1e-6 {
		t.Errorf("CR-2L E_res %g want %g", pred.ERes, wantE)
	}
}

func TestPredictFWEq13to16(t *testing.T) {
	p := baseParams()
	p.TConst = 2
	p.ExtraFracPerFault = 0.05
	p.NTilde = 1
	p.PIdleFrac = 0.45
	pred, err := PredictFW(p)
	if err != nil {
		t.Fatal(err)
	}
	// lambda*T = 1 expected fault: T_const = 2, T_extra = 0.05*100 = 5.
	if math.Abs(pred.TRes-7) > 1e-9 {
		t.Errorf("FW T_res %g want 7", pred.TRes)
	}
	perCore := p.PBase / float64(p.N)
	pConst := perCore + 191*perCore*0.45
	wantE := pConst*2 + p.PBase*5
	if math.Abs(pred.ERes-wantE) > 1e-6 {
		t.Errorf("FW E_res %g want %g", pred.ERes, wantE)
	}
}

func TestPredictFWValidation(t *testing.T) {
	p := baseParams()
	p.PIdleFrac = 0 // invalid
	if _, err := PredictFW(p); err == nil {
		t.Error("FW without PIdleFrac accepted")
	}
	p = baseParams()
	p.PIdleFrac = 0.5
	p.NTilde = 1000
	if _, err := PredictFW(p); err == nil {
		t.Error("NTilde > N accepted")
	}
}

// Property: more faults (higher lambda) never reduce predicted overheads.
func TestQuickOverheadMonotoneInLambda(t *testing.T) {
	f := func(l1, l2 float64) bool {
		a := math.Mod(math.Abs(l1), 0.1)
		b := a + math.Mod(math.Abs(l2), 0.1)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		mk := func(lambda float64) Params {
			p := baseParams()
			p.Lambda = lambda
			p.TConst = 1
			p.ExtraFracPerFault = 0.02
			p.PIdleFrac = 0.45
			p.Levels = []Level{{TC: 0.3, IC: 8, PFrac: 0.8}}
			return p
		}
		fwA, err1 := PredictFW(mk(a))
		fwB, err2 := PredictFW(mk(b))
		crA, err3 := PredictCR(mk(a))
		crB, err4 := PredictCR(mk(b))
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return fwB.TRes >= fwA.TRes-1e-12 && fwB.ERes >= fwA.ERes-1e-12 &&
			crB.TRes >= crA.TRes-1e-12 && crB.ERes >= crA.ERes-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: E = P * T holds for every prediction.
func TestQuickEnergyIdentity(t *testing.T) {
	p := baseParams()
	p.Levels = []Level{{TC: 0.5, IC: 10, PFrac: 0.8}}
	p.TConst, p.ExtraFracPerFault, p.PIdleFrac = 1, 0.03, 0.45
	p.Replicas = 2
	preds := []func() (Prediction, error){
		func() (Prediction, error) { return PredictFF(p) },
		func() (Prediction, error) { return PredictRD(p) },
		func() (Prediction, error) { return PredictCR(p) },
		func() (Prediction, error) { return PredictFW(p) },
	}
	for i, mk := range preds {
		pred, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred.E-pred.P*pred.T) > 1e-6*pred.E {
			t.Errorf("prediction %d: E=%g P*T=%g", i, pred.E, pred.P*pred.T)
		}
		if pred.T < p.TBase {
			t.Errorf("prediction %d: T below baseline", i)
		}
	}
}

func TestValidateParams(t *testing.T) {
	bad := Params{TBase: -1, PBase: 1, N: 1}
	if _, err := PredictFF(bad); err == nil {
		t.Error("negative TBase accepted")
	}
	bad = baseParams()
	bad.Lambda = -1
	if _, err := PredictFF(bad); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestPredictESR(t *testing.T) {
	p := baseParams()
	p.PersistFrac = 0.05
	p.TConst = 2
	pred, err := PredictESR(p)
	if err != nil {
		t.Fatal(err)
	}
	// T_persist = 0.05*100 = 5; T_const = 0.01*100*2 = 2.
	if math.Abs(pred.TRes-7) > 1e-9 {
		t.Errorf("ESR T_res %g want 7", pred.TRes)
	}
	// All cores busy: E_res = PBase * T_res, so P stays at baseline.
	if math.Abs(pred.ERes-p.PBase*7) > 1e-6 {
		t.Errorf("ESR E_res %g want %g", pred.ERes, p.PBase*7)
	}
	if math.Abs(pred.P-p.PBase) > 1e-9 {
		t.Errorf("ESR average power %g want baseline %g", pred.P, p.PBase)
	}
	// Fault-free still pays the persist overhead — that is the trade.
	p.Lambda = 0
	pred0, _ := PredictESR(p)
	if math.Abs(pred0.TRes-5) > 1e-9 {
		t.Errorf("fault-free ESR T_res %g want 5 (persist only)", pred0.TRes)
	}
	p.PersistFrac = -1
	if _, err := PredictESR(p); err == nil {
		t.Error("negative persist fraction must be rejected")
	}
}

// TestPredictCRLossyLevel prices LCR: one level whose store compresses 8x
// (t_C 0.5/8) and whose restores cost a re-convergence penalty.
func TestPredictCRLossyLevel(t *testing.T) {
	p := baseParams()
	p.Levels = []Level{{TC: 0.5 / 8, IC: 10, PFrac: 0.8}}
	p.ExtraFracPerFault = 0.02
	pred, err := PredictCR(p)
	if err != nil {
		t.Fatal(err)
	}
	// T_chkpt = (0.5/8)*100/10 = 0.625; T_lost = 5; T_extra = 1*0.02*100 = 2.
	if math.Abs(pred.TRes-7.625) > 1e-9 {
		t.Errorf("LCR T_res %g want 7.625", pred.TRes)
	}
	wantE := 0.625*0.8*p.PBase + 5*p.PBase + 2*p.PBase
	if math.Abs(pred.ERes-wantE) > 1e-6 {
		t.Errorf("LCR E_res %g want %g", pred.ERes, wantE)
	}
	// Without a re-convergence penalty the compressed checkpoints beat
	// the exact store outright; the penalty is what the trade-off is about.
	q := p
	q.ExtraFracPerFault = 0
	lcr0, _ := PredictCR(q)
	q.Levels = []Level{{TC: 0.5, IC: 10, PFrac: 0.8}}
	cr, _ := PredictCR(q)
	if lcr0.TRes >= cr.TRes {
		t.Errorf("penalty-free LCR T_res %g not below CR's %g", lcr0.TRes, cr.TRes)
	}

	// NewLevel prices a lossy store as its inner store writing the
	// compressed payload, at the inner store's power.
	plat := platform.Default()
	disk := checkpoint.DiskStore{Plat: plat}
	lossy := NewLevel(checkpoint.Lossy{Inner: disk, Ratio: 8}, plat, 8<<20, 4)
	exact := NewLevel(disk, plat, 1<<20, 4)
	if lossy != exact {
		t.Errorf("lossy level %+v, want the disk level of the compressed payload %+v", lossy, exact)
	}
	if want := plat.PowerIdle(plat.FreqMax) / plat.PowerActive(plat.FreqMax); exact.PFrac != want {
		t.Errorf("disk level power fraction %g, want the idle fraction %g", exact.PFrac, want)
	}
	if mem := NewLevel(checkpoint.MemStore{Plat: plat}, plat, 1<<20, 4); mem.PFrac != 1 {
		t.Errorf("memory level power fraction %g, want 1", mem.PFrac)
	}
}
