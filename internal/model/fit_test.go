package model

import (
	"testing"

	"resilience/internal/checkpoint"
	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/platform"
)

// fitFixture runs a small FF baseline and one scheme run for fitting.
func fitFixture(t *testing.T, spec core.SchemeSpec, keepSegs bool) (ff, run *core.RunReport, plat *platform.Platform) {
	t.Helper()
	a := matgen.BandedSPD(matgen.BandedOpts{N: 256, NNZPerRow: 7, Kappa: 400, Seed: 21})
	b, _ := matgen.RHS(a)
	plat = platform.Default()
	cfg := core.RunConfig{
		A: a, B: b, Ranks: 4, Plat: plat, Tol: 1e-10, MaxIters: 5000, Seed: 1,
	}
	var err error
	ff, err = core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scheme = spec
	c.KeepSegments = keepSegs
	ffIters := ff.Iters
	c.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(4, ffIters, 4, 9, fault.SNF))
	}
	run, err = core.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return ff, run, plat
}

func TestBaseParams(t *testing.T) {
	ff, _, _ := fitFixture(t, core.SchemeSpec{Kind: core.LI}, false)
	p := BaseParams(ff)
	if p.TBase != ff.Time || p.PBase != ff.AvgPower || p.N != ff.Ranks {
		t.Error("BaseParams must mirror the FF run")
	}
}

func TestFitFWAndPredict(t *testing.T) {
	ff, run, plat := fitFixture(t, core.SchemeSpec{Kind: core.LI, DVFS: true}, true)
	params, err := FitFW(ff, run, plat, true)
	if err != nil {
		t.Fatal(err)
	}
	if params.Lambda <= 0 {
		t.Error("lambda not fitted")
	}
	if params.TConst <= 0 {
		t.Error("t_const not measured from reconstruction windows")
	}
	if params.PIdleFrac <= 0 || params.PIdleFrac >= 1 {
		t.Errorf("idle fraction %g", params.PIdleFrac)
	}
	pred, err := PredictFW(params)
	if err != nil {
		t.Fatal(err)
	}
	v := Validate("LI-DVFS", pred, BaseParams(ff), ff, run)
	// The model and the measurement must agree on the order of magnitude
	// of the overheads (the paper's Table 6 shows ~30% model error).
	if v.MeasTRes < 0 {
		t.Errorf("measured T_res %g negative", v.MeasTRes)
	}
	if v.ModelTRes <= 0 {
		t.Errorf("model T_res %g", v.ModelTRes)
	}
	if ratio := v.ModelTRes / v.MeasTRes; ratio < 0.2 || ratio > 5 {
		t.Errorf("model/measured T_res ratio %g out of range (model %g, meas %g)",
			ratio, v.ModelTRes, v.MeasTRes)
	}
}

func TestFitFWWithoutSegments(t *testing.T) {
	ff, run, plat := fitFixture(t, core.SchemeSpec{Kind: core.LI, DVFS: true}, false)
	params, err := FitFW(ff, run, plat, true)
	if err != nil {
		t.Fatal(err)
	}
	if params.TConst <= 0 {
		t.Error("t_const fallback from phase energy failed")
	}
}

func TestFitCRAndPredict(t *testing.T) {
	ff, run, plat := fitFixture(t, core.SchemeSpec{Kind: core.CRM, CkptEvery: 20}, false)
	params, err := FitCR(ff, run, plat)
	if err != nil {
		t.Fatal(err)
	}
	if len(params.Levels) != 1 || params.Levels[0].TC <= 0 || params.Levels[0].IC <= 0 {
		t.Errorf("levels %+v", params.Levels)
	}
	pred, err := PredictCR(params)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TRes <= 0 {
		t.Error("CR must predict positive overhead under faults")
	}
	v := Validate("CR-M", pred, BaseParams(ff), ff, run)
	if v.MeasERes < 0 {
		t.Errorf("measured E_res %g", v.MeasERes)
	}
}

// TestFitCRLevelsMatchCore fits every checkpointing scheme and requires
// one model level per store core chose, priced at the payload and
// interval the run used: 8 bytes for each of the largest block's rows
// (256 rows over 4 ranks), every 20 iterations (CR-2L's disk every 80).
func TestFitCRLevelsMatchCore(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.CRM, core.CRD, core.CR2L, core.LCR} {
		ff, run, plat := fitFixture(t, core.SchemeSpec{Kind: kind, CkptEvery: 20}, false)
		want := core.CheckpointLevels(kind, plat, checkpoint.FixedPolicy(20))
		params, err := FitCR(ff, run, plat)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(run.Levels) != len(want) || len(params.Levels) != len(want) {
			t.Fatalf("%s: %d run levels, %d fitted, want %d", kind, len(run.Levels), len(params.Levels), len(want))
		}
		iterTime := ff.Time / float64(ff.Iters)
		writes := 0
		for i, w := range want {
			got, lv := run.Levels[i], params.Levels[i]
			if got.Store != w.Store || got.Bytes != 8*64 || got.Every != w.Policy.EveryIters {
				t.Errorf("%s level %d: %s, %d bytes every %d; want %s, 512 bytes every %d",
					kind, i, got.Store.Name(), got.Bytes, got.Every, w.Store.Name(), w.Policy.EveryIters)
			}
			pFrac := 1.0
			if !w.Store.CPUBusy() {
				pFrac = plat.PowerIdle(plat.FreqMax) / plat.PowerActive(plat.FreqMax)
			}
			if lv.TC != w.Store.WriteTime(8*64, 4) || lv.IC != float64(w.Policy.EveryIters)*iterTime || lv.PFrac != pFrac {
				t.Errorf("%s level %d fitted %+v", kind, i, lv)
			}
			writes += got.Writes
		}
		if writes != run.Checkpoints || writes == 0 {
			t.Errorf("%s: level writes sum to %d, report counts %d", kind, writes, run.Checkpoints)
		}
	}
}

func TestFitCRRejectsBadInput(t *testing.T) {
	ff, run, plat := fitFixture(t, core.SchemeSpec{Kind: core.CRM, CkptEvery: 20}, false)
	if _, err := FitCR(ff, ff, plat); err == nil {
		t.Error("fault-free run accepted for CR fitting")
	}
	noLevels := *run
	noLevels.Levels = nil
	if _, err := FitCR(ff, &noLevels, plat); err == nil {
		t.Error("run with no checkpoint levels accepted")
	}
	_, liRun, _ := fitFixture(t, core.SchemeSpec{Kind: core.LI}, false)
	if _, err := FitCR(ff, liRun, plat); err == nil {
		t.Error("non-CR scheme accepted")
	}
}

func TestFitRDValidatesAsPaper(t *testing.T) {
	ff, run, _ := fitFixture(t, core.SchemeSpec{Kind: core.RD}, false)
	pred, err := PredictRD(FitRD(ff, 2))
	if err != nil {
		t.Fatal(err)
	}
	v := Validate("RD", pred, BaseParams(ff), ff, run)
	// Table 6's RD row: T_res 0, P 2, E_res 1 — in both columns.
	if v.ModelTRes != 0 || v.ModelP != 2 || v.ModelERes != 1 {
		t.Errorf("model RD row: %+v", v)
	}
	if v.MeasTRes > 0.05 {
		t.Errorf("measured RD T_res %g want ~0", v.MeasTRes)
	}
	if v.MeasP < 1.9 || v.MeasP > 2.1 {
		t.Errorf("measured RD P %g want ~2", v.MeasP)
	}
}
