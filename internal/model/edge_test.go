package model

import (
	"math"
	"testing"

	"resilience/internal/checkpoint"
)

// baseParams is a plausible baseline for the edge tables: one second of
// fault-free solve on 16 cores at 100 W.
func edgeBase() Params {
	return Params{TBase: 1.0, PBase: 100.0, N: 16}
}

// TestZeroFaultCampaign: with Lambda = 0 (a campaign that injects no
// faults) every scheme's fault-proportional overhead must vanish exactly
// — not approximately — and the totals must collapse to the fault-free
// prediction. CR keeps its checkpoint-write tax (checkpoints are taken
// whether or not faults arrive); FW and the lost-work term must be
// identically zero.
func TestZeroFaultCampaign(t *testing.T) {
	base := edgeBase()
	base.Lambda = 0

	ff, err := PredictFF(base)
	if err != nil {
		t.Fatal(err)
	}
	if ff.T != base.TBase || ff.E != base.PBase*base.TBase {
		t.Fatalf("PredictFF at lambda=0: T=%g E=%g, want TBase=%g and PBase*TBase=%g",
			ff.T, ff.E, base.TBase, base.PBase*base.TBase)
	}

	p := base
	p.TConst = 0.05
	p.ExtraFracPerFault = 0.04
	p.NTilde = 1
	p.PIdleFrac = 0.5
	fw, err := PredictFW(p)
	if err != nil {
		t.Fatal(err)
	}
	if fw.TRes != 0 || fw.ERes != 0 {
		t.Errorf("PredictFW at lambda=0: TRes=%g ERes=%g, want exactly 0", fw.TRes, fw.ERes)
	}
	if fw.T != base.TBase || fw.E != ff.E {
		t.Errorf("PredictFW at lambda=0 must equal the fault-free totals: T=%g E=%g", fw.T, fw.E)
	}

	p = base
	lv := Level{TC: 0.01, IC: 0.5, PFrac: 0.6}
	p.Levels = []Level{lv}
	p.ExtraFracPerFault = 0.04
	cr, err := PredictCR(p)
	if err != nil {
		t.Fatal(err)
	}
	wantCkpt := lv.TC * p.TBase / lv.IC
	if cr.TRes != wantCkpt {
		t.Errorf("PredictCR at lambda=0: TRes=%g, want pure checkpoint tax %g (no lost work)", cr.TRes, wantCkpt)
	}
	if cr.ERes != wantCkpt*lv.PFrac*p.PBase {
		t.Errorf("PredictCR at lambda=0: ERes=%g, want %g", cr.ERes, wantCkpt*lv.PFrac*p.PBase)
	}
}

// TestMTBFLimits drives the predictions to both ends of the failure-rate
// axis, lambda = 1/MTBF: a huge-but-finite MTBF (1e300 s — the ∞ limit;
// +Inf itself would make lambda exactly 0 and is covered above) and a
// tiny MTBF (faults nearly continuous). All outputs must stay finite, and
// overheads must be monotone in the rate.
func TestMTBFLimits(t *testing.T) {
	base := edgeBase()
	cases := []struct {
		name string
		mtbf float64
	}{
		{"mtbf-huge", 1e300},
		{"mtbf-1e9", 1e9},
		{"mtbf-1", 1},
		{"mtbf-1e-9", 1e-9},
	}
	var prevFW, prevCR float64
	prevFW, prevCR = -1, -1
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			p.Lambda = 1 / tc.mtbf

			fwp := p
			fwp.TConst = 0.05
			fwp.ExtraFracPerFault = 0.04
			fwp.NTilde = 1
			fwp.PIdleFrac = 0.5
			fw, err := PredictFW(fwp)
			if err != nil {
				t.Fatal(err)
			}
			crp := p
			crp.Levels = []Level{{TC: 0.01, IC: checkpoint.YoungInterval(0.01, tc.mtbf), PFrac: 0.6}}
			cr, err := PredictCR(crp)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name string
				pred Prediction
			}{{"FW", fw}, {"CR", cr}} {
				for _, f := range []float64{v.pred.TRes, v.pred.ERes, v.pred.T, v.pred.E, v.pred.P} {
					if math.IsNaN(f) || math.IsInf(f, 0) {
						t.Fatalf("%s at MTBF %g produced non-finite prediction %+v", v.name, tc.mtbf, v.pred)
					}
				}
				if v.pred.TRes < 0 || v.pred.ERes < 0 {
					t.Fatalf("%s at MTBF %g: negative overhead %+v", v.name, tc.mtbf, v.pred)
				}
			}
			// The cases run from rare to frequent faults: overheads must
			// not decrease as the MTBF shrinks.
			if fw.TRes < prevFW || cr.TRes < prevCR {
				t.Fatalf("overhead not monotone in failure rate at MTBF %g: FW %g (prev %g), CR %g (prev %g)",
					tc.mtbf, fw.TRes, prevFW, cr.TRes, prevCR)
			}
			prevFW, prevCR = fw.TRes, cr.TRes
		})
	}
}

// TestSingleCoreDegenerateParams: N = 1 is the single-rank partition
// degenerate case — FW's "other cores idle" term has no other cores, so
// construction power equals baseline power and the model must not divide
// into nonsense.
func TestSingleCoreDegenerateParams(t *testing.T) {
	p := Params{TBase: 1, PBase: 10, N: 1, Lambda: 0.5,
		TConst: 0.05, ExtraFracPerFault: 0.04, NTilde: 1, PIdleFrac: 0.5}
	fw, err := PredictFW(p)
	if err != nil {
		t.Fatal(err)
	}
	// With N == NTilde == 1 the idle term is empty: the construction runs
	// at exactly the baseline (= per-core) power.
	nFaults := p.Lambda * p.TBase
	tConst := nFaults * p.TConst
	tExtra := nFaults * p.ExtraFracPerFault * p.TBase
	wantERes := p.PBase*tConst + p.PBase*tExtra
	if fw.ERes != wantERes {
		t.Errorf("PredictFW N=1: ERes=%g, want %g (no idle-core discount possible)", fw.ERes, wantERes)
	}
	// NTilde beyond the machine is a configuration error, not a silent clamp.
	p.NTilde = 2
	if _, err := PredictFW(p); err == nil {
		t.Error("PredictFW with NTilde > N must fail")
	}
}
