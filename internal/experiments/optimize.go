package experiments

import (
	"fmt"

	"resilience/internal/core"
	"resilience/internal/recovery"
	"resilience/internal/report"
)

func init() {
	register("fig4", "CG-based construction vs LU/QR baselines (Figure 4): Kuu, 5 faults", runFig4)
	register("ablation-interval", "Ablation: checkpoint interval policy (fixed vs Young vs Daly)", runAblationInterval)
	register("ablation-tol", "Ablation: localized construction tolerance sweep", runAblationTol)
	register("ablation-dvfs", "Ablation: DVFS floor frequency sweep during reconstruction", runAblationDVFS)
	register("ablation-tmr", "Ablation: DMR vs TMR redundancy degree", runAblationTMR)
}

// runFig4 reproduces Figure 4: time-to-solution of the CG-based LI/LSI
// construction across construction tolerances, against the exact LU/QR
// baselines of prior work.
func runFig4(cfg Config) (*Result, error) {
	c := cfg
	c.Faults = 5 // the figure's setting
	s, err := c.loadSystem("Kuu")
	if err != nil {
		return nil, err
	}
	ff, err := c.faultFree(s)
	if err != nil {
		return nil, err
	}
	tols := []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10}
	kinds := []core.SchemeKind{core.LI, core.LSI}

	// One cell per (kind, construction): slot 0 of each kind is the exact
	// baseline, slots 1..len(tols) the CG construction at each tolerance.
	perKind := 1 + len(tols)
	reps := make([]*core.RunReport, len(kinds)*perKind)
	err = c.runCells(len(reps), func(i int) error {
		kind := kinds[i/perKind]
		spec := core.SchemeSpec{Kind: kind, Construct: recovery.ConstructExact}
		if j := i % perKind; j > 0 {
			spec = core.SchemeSpec{Kind: kind, LocalTol: tols[j-1]}
		}
		rep, err := c.runScheme(s, spec, false)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	for ki, kind := range kinds {
		baseline := reps[ki*perKind]
		label := "LI (LU)"
		if kind == core.LSI {
			label = "LSI (QR)"
		}
		t := report.NewTable(fmt.Sprintf("Figure 4: %s analog, 5 faults, %s baseline TTS=%.4gs",
			s.spec.Name, label, baseline.Time),
			"Construction", "Tol", "Iters", "TTS (s)", "TTS/FF", "vs exact")
		t.AddF(label, "exact", baseline.Iters, baseline.Time, baseline.Time/ff.Time, 0.0)
		for ti, tol := range tols {
			rep := reps[ki*perKind+1+ti]
			t.AddF(rep.Scheme+" (CG)", fmt.Sprintf("%.0e", tol), rep.Iters, rep.Time,
				rep.Time/ff.Time, (baseline.Time-rep.Time)/baseline.Time)
		}
		tables = append(tables, t)
	}
	return &Result{
		ID:     "fig4",
		Title:  "Time-to-solution with the CG-based construction (Figure 4)",
		Tables: tables,
		Notes: []string{
			"Paper expectation: CG-based LI/LSI beat the LU/QR exact baselines by ~4-15% TTS depending on the tolerance.",
		},
	}, nil
}

// runAblationInterval compares fixed-interval, Young and Daly checkpoint
// policies for CR-D (extension beyond the paper).
func runAblationInterval(cfg Config) (*Result, error) {
	s, err := cfg.loadSystem("crystm02")
	if err != nil {
		return nil, err
	}
	ff, err := cfg.faultFree(s)
	if err != nil {
		return nil, err
	}
	// The Young and Daly rows take their MTBF, T_ff / faults, from the
	// schedule.
	specs := []struct {
		label string
		spec  core.SchemeSpec
	}{
		{"fixed-25", core.SchemeSpec{Kind: core.CRD, CkptEvery: 25}},
		{"fixed-100", core.SchemeSpec{Kind: core.CRD, CkptEvery: 100}},
		{"fixed-400", core.SchemeSpec{Kind: core.CRD, CkptEvery: 400}},
		{"young", core.SchemeSpec{Kind: core.CRD}},
		{"daly", core.SchemeSpec{Kind: core.CRD, UseDaly: true}},
	}
	reps := make([]*core.RunReport, len(specs))
	err = cfg.runCells(len(specs), func(i int) error {
		rep, err := cfg.runScheme(s, specs[i].spec, false)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Checkpoint policy ablation: crystm02 analog, CR-D, %d faults", cfg.Faults),
		"Policy", "Checkpoints", "Iters/FF", "Time/FF", "Energy/FF")
	for i, sp := range specs {
		rep := reps[i]
		t.AddF(sp.label, rep.Checkpoints, float64(rep.Iters)/float64(ff.Iters),
			rep.Time/ff.Time, rep.Energy/ff.Energy)
	}
	return &Result{
		ID:     "ablation-interval",
		Title:  "Checkpoint interval policy ablation",
		Tables: []*report.Table{t},
		Notes: []string{
			"Expectation: too-frequent checkpoints waste checkpoint time, too-rare ones waste recomputation; Young/Daly land near the sweet spot.",
		},
	}, nil
}

// runAblationTol quantifies how the localized construction tolerance
// trades construction work against extra solver iterations.
func runAblationTol(cfg Config) (*Result, error) {
	s, err := cfg.loadSystem("cvxbqp1")
	if err != nil {
		return nil, err
	}
	ff, err := cfg.faultFree(s)
	if err != nil {
		return nil, err
	}
	tols := []float64{1e-1, 1e-3, 1e-6, 1e-9, 1e-12}
	reps := make([]*core.RunReport, len(tols))
	err = cfg.runCells(len(tols), func(i int) error {
		rep, err := cfg.runScheme(s, core.SchemeSpec{Kind: core.LI, LocalTol: tols[i]}, false)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Construction tolerance ablation: cvxbqp1 analog, LI(CG), %d faults", cfg.Faults),
		"LocalTol", "Iters", "Iters/FF", "Time/FF", "Energy/FF")
	for i, tol := range tols {
		rep := reps[i]
		t.AddF(fmt.Sprintf("%.0e", tol), rep.Iters, float64(rep.Iters)/float64(ff.Iters),
			rep.Time/ff.Time, rep.Energy/ff.Energy)
	}
	return &Result{
		ID:     "ablation-tol",
		Title:  "Localized construction tolerance ablation",
		Tables: []*report.Table{t},
		Notes: []string{
			"Expectation: looser tolerances cut construction cost but add solver iterations; the optimum is in the middle (the paper's Fig. 4 observation).",
		},
	}, nil
}

// runAblationDVFS sweeps the parked-core frequency during reconstruction.
func runAblationDVFS(cfg Config) (*Result, error) {
	s, err := cfg.loadSystem("nd24k")
	if err != nil {
		return nil, err
	}
	// The baseline must be computed with the original platform BEFORE the
	// cells launch: the per-rank-count FF cache is keyed by rank count
	// only, so a cell's modified platform must not be the one to fill it.
	ff, err := cfg.faultFree(s)
	if err != nil {
		return nil, err
	}
	plat := *cfg.Plat
	floors := []float64{plat.FreqMax, 1.8, 1.5, plat.FreqMin}
	reps := make([]*core.RunReport, len(floors))
	err = cfg.runCells(len(floors), func(i int) error {
		p := plat
		p.FreqMin = floors[i] // parkOthers parks at FreqMin
		c := cfg
		c.Plat = &p
		rep, err := c.runScheme(s, core.SchemeSpec{Kind: core.LI, DVFS: true}, false)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("DVFS floor ablation: nd24k analog, LI, %d faults", cfg.Faults),
		"Floor (GHz)", "Time/FF", "Energy/FF", "Power/FF")
	for i, floor := range floors {
		rep := reps[i]
		t.AddF(fmt.Sprintf("%.1f", floor), rep.Time/ff.Time, rep.Energy/ff.Energy, rep.AvgPower/ff.AvgPower)
	}
	return &Result{
		ID:     "ablation-dvfs",
		Title:  "DVFS floor frequency ablation",
		Tables: []*report.Table{t},
		Notes: []string{
			"Expectation: lower floors save more energy during reconstruction with no time penalty (the reconstructing core stays at f_max).",
		},
	}, nil
}

// runAblationTMR compares DMR against TMR (extension).
func runAblationTMR(cfg Config) (*Result, error) {
	s, err := cfg.loadSystem("Kuu")
	if err != nil {
		return nil, err
	}
	ff, err := cfg.faultFree(s)
	if err != nil {
		return nil, err
	}
	kinds := []core.SchemeKind{core.RD, core.TMR}
	reps := make([]*core.RunReport, len(kinds))
	err = cfg.runCells(len(kinds), func(i int) error {
		rep, err := cfg.runScheme(s, core.SchemeSpec{Kind: kinds[i]}, false)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Redundancy degree: Kuu analog, %d faults", cfg.Faults),
		"Scheme", "Iters/FF", "Time/FF", "Power/FF", "Energy/FF")
	for _, rep := range reps {
		t.AddF(rep.Scheme, float64(rep.Iters)/float64(ff.Iters),
			rep.Time/ff.Time, rep.AvgPower/ff.AvgPower, rep.Energy/ff.Energy)
	}
	return &Result{
		ID:     "ablation-tmr",
		Title:  "DMR vs TMR redundancy ablation",
		Tables: []*report.Table{t},
		Notes: []string{
			"Expectation: both match FF iterations; power/energy scale with the redundancy degree (2x, 3x).",
		},
	}, nil
}
