// Package model implements the paper's Section 3 analytical models: the
// generalized time/power/energy metrics (Eqs. 1–8) and the per-scheme
// resilience cost refinements (Eqs. 9–16). Parameters are extracted from
// measured runs (Section 5's methodology) and predictions are compared
// against measurements to validate the models (Table 6).
package model

import (
	"fmt"

	"resilience/internal/checkpoint"
	"resilience/internal/platform"
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

	// Checkpoint/restart (Eqs. 9–11): the checkpoint levels, shallowest
	// first.
	Levels []Level

	// Forward recovery (Eqs. 13–16).
	TConst float64 // per-reconstruction cost t_const
	// ExtraFracPerFault is the extra-iteration time per fault relative to
	// TBase (the workload/matrix-dependent convergence penalty); for CR,
	// re-converging from a lossy checkpoint (zero for an exact store).
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
}

// Level is one checkpoint level as Eqs. 10–11 price it.
type Level struct {
	TC    float64 // per-checkpoint cost t_C, seconds
	IC    float64 // checkpoint interval I_C, seconds
	PFrac float64 // power while writing, relative to PBase
}

// NewLevel prices a level whose store each of writers ranks writes bytes
// to: at full power when the store keeps the CPU busy, at an idle core's
// otherwise. The interval is the caller's (a run's, or Young's from t_C).
func NewLevel(store checkpoint.Store, plat *platform.Platform, bytes int64, writers int) Level {
	lv := Level{TC: store.WriteTime(bytes, writers), PFrac: 1}
	if !store.CPUBusy() {
		lv.PFrac = IdleFrac(plat, false)
	}
	return lv
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

// PredictCR models checkpoint/restart (Eqs. 9–11) over the levels l,
// shallowest first:
//
//	T_chkpt = Σ_l t_C,l * T/I_C,l                (Eq. 10)
//	T_lost  = (I_C,0/2) * λ * T                   (Eq. 11)
//	T_extra = (λ * T) * ExtraFracPerFault * TBase
//
// with T approximated by the fault-free TBase (first-order, as the paper
// does). A deeper interval is a multiple of the shallower one, and where
// both are due recovery.CR pays only the deeper write, so level l is
// charged T/I_C,l − T/I_C,l+1 writes. Work is lost back to the freshest,
// shallowest copy; T_extra re-converges from a lossy one (arXiv:1804.11268).
// Level l writes at PFrac * PBase; recomputation runs at PBase.
func PredictCR(p Params) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	if len(p.Levels) == 0 {
		return Prediction{}, fmt.Errorf("model: CR needs a checkpoint level")
	}
	var tChkpt, eRes float64
	for i, lv := range p.Levels {
		t := lv.TC * p.TBase / lv.IC
		if i+1 < len(p.Levels) {
			t -= lv.TC * p.TBase / p.Levels[i+1].IC
		}
		if !(lv.TC > 0 && lv.IC > 0 && lv.PFrac > 0 && lv.PFrac <= 1 && t >= 0) {
			return Prediction{}, fmt.Errorf("model: CR level %d needs TC>0, IC>0, PFrac in (0,1] and no deeper level written more often (got %+v)", i, lv)
		}
		tChkpt += t
		eRes += t * lv.PFrac * p.PBase
	}
	tLost := p.Levels[0].IC / 2 * p.Lambda * p.TBase
	tExtra := p.Lambda * p.TBase * p.ExtraFracPerFault * p.TBase
	tRes := tChkpt + tLost + tExtra
	eRes = eRes + tLost*p.PBase + p.PBase*tExtra
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
