package model

import (
	"math"
	"testing"
	"testing/quick"
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
	p.TC = 0.5
	p.IC = 10
	p.PCkptFrac = 0.8
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
	p := baseParams()
	if _, err := PredictCR(p); err == nil {
		t.Error("CR without TC/IC accepted")
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
			p.TC = 0.3
			p.IC = 8
			p.PCkptFrac = 0.8
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
	p.TC, p.IC, p.PCkptFrac = 0.5, 10, 0.8
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

func TestPredictLCR(t *testing.T) {
	p := baseParams()
	p.TC = 0.5
	p.IC = 10
	p.PCkptFrac = 0.8
	p.CompressRatio = 8
	p.ExtraFracPerFault = 0.02
	pred, err := PredictLCR(p)
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
	// plain CR outright; the penalty is what the trade-off is about.
	q := p
	q.ExtraFracPerFault = 0
	lcr0, _ := PredictLCR(q)
	cr, _ := PredictCR(q)
	if lcr0.TRes >= cr.TRes {
		t.Errorf("penalty-free LCR T_res %g not below CR's %g", lcr0.TRes, cr.TRes)
	}
	// Ratio 1 with no penalty degenerates to plain CR.
	q.CompressRatio = 1
	same, _ := PredictLCR(q)
	if math.Abs(same.TRes-cr.TRes) > 1e-12 || math.Abs(same.ERes-cr.ERes) > 1e-9 {
		t.Error("ratio-1 LCR must degenerate to CR")
	}
	p.CompressRatio = 0.5
	if _, err := PredictLCR(p); err == nil {
		t.Error("compression ratio below 1 must be rejected")
	}
}
