// Modelcheck: fit the paper's Section 3 analytical models from measured
// runs and compare their predictions against measurements — a miniature
// of Table 6, exercising the model and fitting API directly.
//
//	go run ./examples/modelcheck
package main

import (
	"context"
	"fmt"
	"log"

	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/model"
	"resilience/internal/platform"
)

func main() {
	spec, err := matgen.Lookup("crystm02")
	if err != nil {
		log.Fatal(err)
	}
	a := spec.Generate(matgen.CI)
	b, _ := matgen.RHS(a)
	plat := platform.Default()

	sys := core.NewSystem(a, b)
	cfg := core.RunConfig{
		A: a, B: b, Ranks: 16, Plat: plat, Tol: 1e-12,
		MaxIters: 40 * spec.TargetIters(matgen.CI), Seed: 1,
	}
	ff, err := sys.FaultFree(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free: %d iterations, %.4gs, %.4g J\n\n", ff.Iters, ff.Time, ff.Energy)
	base := model.BaseParams(ff)

	run := func(spec core.SchemeSpec, keepSegs bool) *core.RunReport {
		c := cfg
		c.Scheme = spec
		c.KeepSegments = keepSegs
		c, _, err := sys.Spread(context.Background(), c, 10, fault.SNF)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.Run(c)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	fmt.Printf("%-10s | %9s %9s %9s | %9s %9s %9s\n",
		"", "model", "", "", "measured", "", "")
	fmt.Printf("%-10s | %9s %9s %9s | %9s %9s %9s\n",
		"scheme", "T_res", "P", "E_res", "T_res", "P", "E_res")

	show := func(v model.Validation) {
		fmt.Printf("%-10s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
			v.Scheme, v.ModelTRes, v.ModelP, v.ModelERes, v.MeasTRes, v.MeasP, v.MeasERes)
	}

	// RD: Eq. 12.
	rdRun := run(core.SchemeSpec{Kind: core.RD}, false)
	rdPred, err := model.PredictRD(model.FitRD(ff, 2))
	if err != nil {
		log.Fatal(err)
	}
	show(model.Validate("RD", rdPred, base, ff, rdRun))

	// LI-DVFS: Eqs. 13-16 with measured t_const from the power trace.
	liRun := run(core.SchemeSpec{Kind: core.LI, DVFS: true}, true)
	liParams, err := model.FitFW(ff, liRun, plat, true)
	if err != nil {
		log.Fatal(err)
	}
	liPred, err := model.PredictFW(liParams)
	if err != nil {
		log.Fatal(err)
	}
	show(model.Validate("LI-DVFS", liPred, base, ff, liRun))

	// CR-M: Eqs. 9-11 with a fixed interval.
	crRun := run(core.SchemeSpec{Kind: core.CRM, CkptEvery: 100}, false)
	crParams, err := model.FitCR(ff, crRun, plat, 100)
	if err != nil {
		log.Fatal(err)
	}
	crPred, err := model.PredictCR(crParams)
	if err != nil {
		log.Fatal(err)
	}
	show(model.Validate("CR-M", crPred, base, ff, crRun))

	fmt.Println("\nFitted FW parameters:")
	fmt.Printf("  lambda            %.4g faults/s\n", liParams.Lambda)
	fmt.Printf("  t_const           %.4g s/fault\n", liParams.TConst)
	fmt.Printf("  extra frac/fault  %.4g of T_ff\n", liParams.ExtraFracPerFault)
	fmt.Printf("  P_idle/P_active   %.4g (parked at f_min)\n", liParams.PIdleFrac)
}
