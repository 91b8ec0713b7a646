// Package projection implements the paper's Section 6: projecting
// resilience costs to large systems under weak scaling. The workload
// keeps 50K non-zeros per process (fixed-time scaling), the per-process
// MTBF is constant (6000 hours), so the system MTBF decreases linearly
// with size. Costs come from the Section 3 models with platform-derived
// parameter scaling:
//
//   - t_C of CR-D grows linearly with system size (shared disk),
//   - t_C of CR-M is constant (local memory),
//   - t_const of FW grows with system size (the length-n beta assembly),
//   - t_extra of FW uses the measured average normalized overhead.
package projection

import (
	"fmt"

	"resilience/internal/checkpoint"
	"resilience/internal/core"
	"resilience/internal/model"
	"resilience/internal/platform"
)

// Config parameterizes the weak-scaling projection.
type Config struct {
	Plat *platform.Platform
	// NNZPerProc is the per-process non-zero count (paper: 50,000).
	NNZPerProc int
	// NNZPerRow sets rows-per-process = NNZPerProc / NNZPerRow.
	NNZPerRow int
	// ItersBase is the fault-free iteration count, constant under
	// fixed-time weak scaling.
	ItersBase int
	// PerProcMTBFHours is the constant per-process MTBF (paper: 6000 h).
	PerProcMTBFHours float64
	// ExtraFracPerFault is the measured average FW convergence penalty
	// per fault, normalized to the fault-free time (Section 6 adopts the
	// experimental average).
	ExtraFracPerFault float64
	// LocalConstSecs is the measured local construction time per fault at
	// the experimental scale (block-size constant under weak scaling).
	LocalConstSecs float64
	// DVFS selects the parked-core power level for FW.
	DVFS bool
	// Sizes is the list of process counts to project.
	Sizes []int
}

// DefaultConfig returns the paper's Figure 9 setting with measured
// constants at their experiment-derived defaults.
func DefaultConfig() Config {
	return Config{
		Plat:              platform.Default(),
		NNZPerProc:        50_000,
		NNZPerRow:         16,
		ItersBase:         1000,
		PerProcMTBFHours:  6000,
		ExtraFracPerFault: 0.04,
		LocalConstSecs:    0.05,
		DVFS:              true,
		Sizes:             []int{1 << 7, 1 << 9, 1 << 11, 1 << 13, 1 << 15, 1 << 17, 1 << 19, 1 << 20},
	}
}

// Row is one projected point: a scheme at a system size, normalized to
// the fault-free case at that size.
type Row struct {
	N      int
	Scheme string
	// MTBFHours is the system MTBF at this size.
	MTBFHours float64
	TResNorm  float64
	EResNorm  float64
	PNorm     float64
}

// baseline computes the fault-free T and P at size n.
func (c Config) baseline(n int) model.Params {
	plat := c.Plat
	rowsPerProc := c.NNZPerProc / c.NNZPerRow
	tIter := core.RankIterTime(plat, int64(2*c.NNZPerProc+12*rowsPerProc), rowsPerProc, n)
	tBase := float64(c.ItersBase) * tIter
	return model.Params{
		TBase:  tBase,
		PBase:  float64(n) * plat.PowerActive(plat.FreqMax),
		N:      n,
		Lambda: float64(n) / (c.PerProcMTBFHours * 3600),
	}
}

// Project computes the Figure 9 series for RD, CR-D, CR-M and FW.
func Project(c Config) ([]Row, error) {
	if c.Plat == nil {
		c.Plat = platform.Default()
	}
	if c.NNZPerProc <= 0 || c.NNZPerRow <= 0 || c.ItersBase <= 0 || c.PerProcMTBFHours <= 0 {
		return nil, fmt.Errorf("projection: invalid config %+v", c)
	}
	plat := c.Plat
	rowsPerProc := c.NNZPerProc / c.NNZPerRow
	ckptBytes := int64(8 * rowsPerProc)

	var rows []Row
	for _, n := range c.Sizes {
		if n <= 0 {
			return nil, fmt.Errorf("projection: invalid size %d", n)
		}
		base := c.baseline(n)
		mtbfSec := 1 / base.Lambda
		add := func(scheme string, pred model.Prediction) {
			rows = append(rows, Row{
				N:         n,
				Scheme:    scheme,
				MTBFHours: mtbfSec / 3600,
				TResNorm:  pred.TResNorm(base),
				EResNorm:  pred.EResNorm(base),
				PNorm:     pred.PNorm(base),
			})
		}

		// RD.
		p := base
		p.Replicas = 2
		rd, err := model.PredictRD(p)
		if err != nil {
			return nil, err
		}
		add("RD", rd)

		// CR-D and CR-M: the runtime's levels at Young's interval. The
		// shared disk's t_C grows linearly in n, buddy memory's is constant.
		for _, kind := range []core.SchemeKind{core.CRD, core.CRM} {
			p = base
			for _, l := range core.CheckpointLevels(kind, plat, checkpoint.Policy{}) {
				lv := model.NewLevel(l.Store, plat, ckptBytes, n)
				lv.IC = checkpoint.YoungInterval(lv.TC, mtbfSec)
				p.Levels = append(p.Levels, lv)
			}
			cr, err := model.PredictCR(p)
			if err != nil {
				return nil, err
			}
			add(kind.String(), cr)
		}

		// FW (best case): local construction constant, beta assembly
		// grows with the global problem size.
		p = base
		globalN := int64(rowsPerProc) * int64(n)
		p.TConst = c.LocalConstSecs + plat.CollectiveTime(8*globalN/int64(n), n) // per-stage block payload
		// The allreduce moves ~rowsPerProc doubles per stage across
		// log2(n) stages; add the linear-volume term for the reduction
		// arithmetic.
		p.TConst += float64(globalN) * 8 / plat.NetBandwidth
		p.ExtraFracPerFault = c.ExtraFracPerFault
		p.NTilde = 1
		p.PIdleFrac = model.IdleFrac(plat, c.DVFS)
		fw, err := model.PredictFW(p)
		if err != nil {
			return nil, err
		}
		add("FW", fw)
	}
	return rows, nil
}
