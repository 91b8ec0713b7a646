// Package model implements the paper's Section 3 analytical models: the
// generalized time/power/energy metrics (Eqs. 1–8) and the per-scheme
// resilience cost refinements (Eqs. 9–16). Parameters are extracted from
// measured runs (Section 5's methodology) and predictions are compared
// against measurements to validate the models (Table 6).
package model

import (
	"fmt"
)

// Params carries the model inputs for one workload/scheme configuration.
// All times in seconds, powers in watts, energies in joules.
type Params struct {
	// Fault-free baseline for the scaled workload w' on N cores.
	TBase float64 // T_solve + T_O(N)  (Eq. 2)
	PBase float64 // N * P_1(w)        (Eq. 4)
	N     int     // core count

	// Failure rate lambda, faults per second (Eq. 3).
	Lambda float64

	// Checkpoint/restart (Eqs. 9–11).
	TC float64 // per-checkpoint cost t_C
	IC float64 // checkpoint interval I_C, seconds
	// PCkptFrac is the power during checkpointing relative to PBase
	// (CPUs are under-utilized while checkpointing: < 1).
	PCkptFrac float64

	// Forward recovery (Eqs. 13–16).
	TConst float64 // per-reconstruction cost t_const
	// ExtraFracPerFault is the extra-iteration time per fault relative to
	// TBase (the workload/matrix-dependent convergence penalty).
	ExtraFracPerFault float64
	// NTilde is the number of cores actively constructing (1 for the
	// schemes under study).
	NTilde int
	// PIdleFrac is idle-core power relative to an active core during
	// construction (set from the platform curve; lower when DVFS parks
	// the idle cores at f_min).
	PIdleFrac float64

	// Redundancy degree for RD (2 for DMR).
	Replicas int

	// Exact state reconstruction (extension; arXiv:2007.04066).
	// PersistFrac is the per-iteration redundancy-persist overhead as a
	// fraction of TBase — the x/p buddy copies ESR streams out every
	// iteration, paid fault or no fault.
	PersistFrac float64

	// Lossy-compressed checkpointing (extension; arXiv:1804.11268).
	// CompressRatio divides the per-checkpoint cost t_C for LCR.
	CompressRatio float64
}

// Prediction is the model output for one scheme.
type Prediction struct {
	TRes float64 // resilience time overhead, seconds (T_res)
	ERes float64 // resilience energy overhead, joules (E_res)
	T    float64 // total time-to-solution (Eq. 3)
	E    float64 // total energy-to-solution (Eq. 8)
	P    float64 // average power E/T
}

// normalized view helpers.

// TResNorm returns T_res / TBase (the paper's Table 6 normalization).
func (p Prediction) TResNorm(base Params) float64 { return p.TRes / base.TBase }

// EResNorm returns E_res / EBase.
func (p Prediction) EResNorm(base Params) float64 {
	return p.ERes / (base.PBase * base.TBase)
}

// PNorm returns P / PBase.
func (p Prediction) PNorm(base Params) float64 { return p.P / base.PBase }

func (pr Prediction) String() string {
	return fmt.Sprintf("T_res=%.4g E_res=%.4g P=%.4g", pr.TRes, pr.ERes, pr.P)
}

func (p Params) validate() error {
	if p.TBase <= 0 || p.PBase <= 0 || p.N <= 0 {
		return fmt.Errorf("model: invalid baseline TBase=%g PBase=%g N=%d", p.TBase, p.PBase, p.N)
	}
	if p.Lambda < 0 {
		return fmt.Errorf("model: negative failure rate %g", p.Lambda)
	}
	return nil
}

// PredictFF returns the fault-free prediction (Eqs. 2, 4, 7).
func PredictFF(p Params) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	e := p.PBase * p.TBase
	return Prediction{T: p.TBase, E: e, P: p.PBase}, nil
}

// PredictRD models dual (or N-) modular redundancy: no time overhead,
// Replicas× power for the full duration (Eq. 12).
func PredictRD(p Params) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	r := float64(p.Replicas)
	if r < 2 {
		r = 2
	}
	e := r * p.PBase * p.TBase
	return Prediction{
		TRes: 0,
		ERes: (r - 1) * p.PBase * p.TBase,
		T:    p.TBase,
		E:    e,
		P:    e / p.TBase,
	}, nil
}

// PredictCR models checkpoint/restart (Eqs. 9–11):
//
//	T_chkpt = t_C * T/I_C        (Eq. 10)
//	T_lost  = (I_C/2) * λ * T    (Eq. 11)
//
// with T approximated by the fault-free TBase (first-order, as the paper
// does). Checkpointing runs at PCkptFrac * PBase; recomputation at PBase.
func PredictCR(p Params) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	if p.TC <= 0 || p.IC <= 0 {
		return Prediction{}, fmt.Errorf("model: CR needs TC>0 and IC>0 (got %g, %g)", p.TC, p.IC)
	}
	ckptFrac := p.PCkptFrac
	if ckptFrac <= 0 {
		ckptFrac = 1
	}
	tChkpt := p.TC * p.TBase / p.IC
	tLost := p.IC / 2 * p.Lambda * p.TBase
	tRes := tChkpt + tLost
	eRes := tChkpt*ckptFrac*p.PBase + tLost*p.PBase
	t := p.TBase + tRes
	e := p.PBase*p.TBase + eRes
	return Prediction{TRes: tRes, ERes: eRes, T: t, E: e, P: e / t}, nil
}

// PredictFW models forward recovery (Eqs. 13–16):
//
//	T_const = λ * T * t_const                         (Eq. 14)
//	T_extra = (λ * T) * ExtraFracPerFault * TBase
//	P_const = Ñ*P_1 + (N-Ñ)*P_idle                    (Eq. 15)
//	E_res   = P_const*T_const + N*P_1*T_extra         (Eq. 16)
func PredictFW(p Params) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	nTilde := p.NTilde
	if nTilde <= 0 {
		nTilde = 1
	}
	if nTilde > p.N {
		return Prediction{}, fmt.Errorf("model: NTilde %d > N %d", nTilde, p.N)
	}
	idleFrac := p.PIdleFrac
	if idleFrac <= 0 || idleFrac > 1 {
		return Prediction{}, fmt.Errorf("model: FW needs PIdleFrac in (0,1], got %g", idleFrac)
	}
	nFaults := p.Lambda * p.TBase
	tConst := nFaults * p.TConst
	tExtra := nFaults * p.ExtraFracPerFault * p.TBase
	tRes := tConst + tExtra

	perCore := p.PBase / float64(p.N)
	pConst := float64(nTilde)*perCore + float64(p.N-nTilde)*perCore*idleFrac
	eRes := pConst*tConst + p.PBase*tExtra
	t := p.TBase + tRes
	e := p.PBase*p.TBase + eRes
	return Prediction{TRes: tRes, ERes: eRes, T: t, E: e, P: e / t}, nil
}

// PredictESR models exact state reconstruction (extension;
// arXiv:2007.04066): a constant redundancy-persist overhead spread over
// every iteration, plus a per-fault reconstruction cost — and nothing
// else, because recovery is exact: no rollback, no lost work, no extra
// iterations. All cores stay busy throughout, so the overhead is charged
// at PBase:
//
//	T_persist = PersistFrac * TBase
//	T_const   = λ * T * t_const
//	E_res     = PBase * (T_persist + T_const)
func PredictESR(p Params) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	if p.PersistFrac < 0 {
		return Prediction{}, fmt.Errorf("model: negative ESR persist fraction %g", p.PersistFrac)
	}
	tPersist := p.PersistFrac * p.TBase
	tConst := p.Lambda * p.TBase * p.TConst
	tRes := tPersist + tConst
	eRes := p.PBase * tRes
	t := p.TBase + tRes
	e := p.PBase*p.TBase + eRes
	return Prediction{TRes: tRes, ERes: eRes, T: t, E: e, P: e / t}, nil
}

// PredictLCR models lossy-compressed checkpoint/restart (extension;
// arXiv:1804.11268): plain CR with the
// per-checkpoint cost divided by the compression ratio, plus a
// re-convergence penalty per restore — restarting from an error-bounded
// decompressed iterate costs extra iterations, priced like the forward
// schemes' convergence penalty:
//
//	T_chkpt = (t_C/R) * T/I_C
//	T_lost  = (I_C/2) * λ * T
//	T_extra = (λ * T) * ExtraFracPerFault * TBase
func PredictLCR(p Params) (Prediction, error) {
	if p.CompressRatio < 1 {
		return Prediction{}, fmt.Errorf("model: LCR needs CompressRatio >= 1, got %g", p.CompressRatio)
	}
	q := p
	q.TC = p.TC / p.CompressRatio
	cr, err := PredictCR(q)
	if err != nil {
		return Prediction{}, err
	}
	tExtra := p.Lambda * p.TBase * p.ExtraFracPerFault * p.TBase
	tRes := cr.TRes + tExtra
	eRes := cr.ERes + p.PBase*tExtra
	t := p.TBase + tRes
	e := p.PBase*p.TBase + eRes
	return Prediction{TRes: tRes, ERes: eRes, T: t, E: e, P: e / t}, nil
}
