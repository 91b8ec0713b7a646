package model

import (
	"fmt"

	"resilience/internal/core"
	"resilience/internal/obs"
	"resilience/internal/platform"
)

// Fitting follows the paper's Section 5 methodology: first-order model
// parameters are derived from measured (here: simulated) runs — t_C and
// t_const are measured per scheme, extra-iteration penalties are averaged
// and normalized against the fault-free case, power fractions come from
// the platform's calibrated curves.

// BaseParams extracts the fault-free baseline from a measured FF run.
func BaseParams(ff *core.RunReport) Params {
	return Params{
		TBase: ff.Time,
		PBase: ff.AvgPower,
		N:     ff.Ranks,
	}
}

// FitCR builds CR parameters from the FF baseline and a measured
// checkpointing run: one level per level the run wrote, priced from its
// store and payload by NewLevel, at its interval in iterations times the
// fault-free iteration time.
func FitCR(ff, run *core.RunReport, plat *platform.Platform) (Params, error) {
	if len(run.Faults) == 0 {
		return Params{}, fmt.Errorf("model: FitCR needs a faulty run")
	}
	if len(run.Levels) == 0 {
		return Params{}, fmt.Errorf("model: FitCR on %q, a run with no checkpoint levels", run.Scheme)
	}
	p := BaseParams(ff)
	p.Lambda = float64(len(run.Faults)) / run.Time

	iterTime := ff.Time / float64(ff.Iters)
	p.Levels = make([]Level, len(run.Levels))
	for i, l := range run.Levels {
		p.Levels[i] = NewLevel(l.Store, plat, l.Bytes, ff.Ranks)
		p.Levels[i].IC = float64(l.Every) * iterTime
	}
	return p, nil
}

// FitFW builds forward-recovery parameters from the FF baseline and a
// measured LI/LSI run. dvfs selects the idle-power level of the parked
// cores during construction.
func FitFW(ff, run *core.RunReport, plat *platform.Platform, dvfs bool) (Params, error) {
	n := len(run.Faults)
	if n == 0 {
		return Params{}, fmt.Errorf("model: FitFW needs a faulty run")
	}
	p := BaseParams(ff)
	p.Lambda = float64(n) / run.Time
	p.NTilde = 1

	// t_const: measured from the reconstruction phase windows when the
	// run kept power segments; otherwise derived from the reconstruct
	// phase energy at construction power.
	if run.Meter != nil {
		var total float64
		for _, w := range run.Meter.PhaseWindows(obs.SpanReconstruct.String()) {
			total += w[1] - w[0]
		}
		p.TConst = total / float64(n)
	} else {
		eRecon := run.EnergyByPhase[obs.SpanReconstruct.String()]
		idle := plat.PowerIdle(freqParked(plat, dvfs))
		pConst := plat.PowerActive(plat.FreqMax) + float64(ff.Ranks-1)*idle
		if pConst > 0 {
			p.TConst = eRecon / pConst / float64(n)
		}
	}

	// Extra-iteration penalty per fault, normalized to the FF runtime.
	iterTime := ff.Time / float64(ff.Iters)
	extraTime := float64(run.Iters-ff.Iters) * iterTime
	if extraTime < 0 {
		extraTime = 0
	}
	p.ExtraFracPerFault = extraTime / float64(n) / ff.Time

	p.PIdleFrac = IdleFrac(plat, dvfs)
	return p, nil
}

// FitRD builds redundancy parameters from the FF baseline.
func FitRD(ff *core.RunReport, replicas int) Params {
	p := BaseParams(ff)
	p.Replicas = replicas
	return p
}

// IdleFrac is a parked core's power relative to an active one at f_max:
// FW's PIdleFrac, and (dvfs false) a level whose store idles the CPU.
func IdleFrac(plat *platform.Platform, dvfs bool) float64 {
	return plat.PowerIdle(freqParked(plat, dvfs)) / plat.PowerActive(plat.FreqMax)
}

// freqParked is a parked core's frequency: f_min under DVFS, else f_max.
func freqParked(plat *platform.Platform, dvfs bool) float64 {
	if dvfs {
		return plat.FreqMin
	}
	return plat.FreqMax
}

// Validation compares a model prediction against a measured run, both
// normalized to the FF baseline — one row of the paper's Table 6.
type Validation struct {
	Scheme string
	// Model-predicted, normalized to FF.
	ModelTRes, ModelP, ModelERes float64
	// Measured, normalized to FF.
	MeasTRes, MeasP, MeasERes float64
}

// Validate computes a Table 6 row from a prediction and measurements.
func Validate(scheme string, pred Prediction, base Params, ff, run *core.RunReport) Validation {
	// For every scheme (RD included) the resilience energy is whatever
	// exceeds one copy's fault-free energy; RD then measures E_res = 1,
	// matching the paper's Table 6.
	return Validation{
		Scheme:    scheme,
		ModelTRes: pred.TResNorm(base),
		ModelP:    pred.PNorm(base),
		ModelERes: pred.EResNorm(base),
		MeasTRes:  (run.Time - ff.Time) / ff.Time,
		MeasP:     run.AvgPower / ff.AvgPower,
		MeasERes:  (run.Energy - ff.Energy) / ff.Energy,
	}
}
