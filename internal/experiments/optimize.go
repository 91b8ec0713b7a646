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
	tols := []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10}
	kinds := []core.SchemeKind{core.LI, core.LSI}

	// One cell per (kind, construction): slot 0 of each kind is the exact
	// baseline, slots 1..len(tols) the CG construction at each tolerance,
	// all under the figure's 5 faults.
	perKind := 1 + len(tols)
	var cells []cell
	for _, kind := range kinds {
		cells = append(cells, cell{scheme: core.SchemeSpec{Kind: kind, Construct: recovery.ConstructExact}})
		for _, tol := range tols {
			cells = append(cells, cell{scheme: core.SchemeSpec{Kind: kind, LocalTol: tol}})
		}
	}
	for i := range cells {
		cells[i].matrix, cells[i].faults = "Kuu", 5
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	ff := out[0].ff
	var tables []*report.Table
	for ki, kind := range kinds {
		baseline := out[ki*perKind].rep
		label := "LI (LU)"
		if kind == core.LSI {
			label = "LSI (QR)"
		}
		t := report.NewTable(fmt.Sprintf("Figure 4: Kuu analog, 5 faults, %s baseline TTS=%.4gs",
			label, baseline.Time),
			"Construction", "Tol", "Iters", "TTS (s)", "TTS/FF", "vs exact")
		t.AddF(label, "exact", baseline.Iters, baseline.Time, baseline.Time/ff.Time, 0.0)
		for ti, tol := range tols {
			rep := out[ki*perKind+1+ti].rep
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
	cells := make([]cell, len(specs))
	for i, sp := range specs {
		cells[i] = cell{matrix: "crystm02", scheme: sp.spec}
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Checkpoint policy ablation: crystm02 analog, CR-D, %d faults", cfg.Faults),
		"Policy", "Checkpoints", "Iters/FF", "Time/FF", "Energy/FF")
	for i, sp := range specs {
		rep, ff := out[i].rep, out[i].ff
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
	tols := []float64{1e-1, 1e-3, 1e-6, 1e-9, 1e-12}
	cells := make([]cell, len(tols))
	for i, tol := range tols {
		cells[i] = cell{matrix: "cvxbqp1", scheme: core.SchemeSpec{Kind: core.LI, LocalTol: tol}}
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Construction tolerance ablation: cvxbqp1 analog, LI(CG), %d faults", cfg.Faults),
		"LocalTol", "Iters", "Iters/FF", "Time/FF", "Energy/FF")
	for i, tol := range tols {
		rep, ff := out[i].rep, out[i].ff
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
	// Every row is normalised to the baseline on the unmodified platform,
	// the first cell's.
	plat := *cfg.Plat
	floors := []float64{plat.FreqMax, 1.8, 1.5, plat.FreqMin}
	cells := []cell{{matrix: "nd24k"}}
	for _, floor := range floors {
		p := plat
		p.FreqMin = floor // parkOthers parks at FreqMin
		cells = append(cells, cell{matrix: "nd24k", scheme: core.SchemeSpec{Kind: core.LI, DVFS: true}, plat: &p})
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	ff := out[0].ff
	t := report.NewTable(fmt.Sprintf("DVFS floor ablation: nd24k analog, LI, %d faults", cfg.Faults),
		"Floor (GHz)", "Time/FF", "Energy/FF", "Power/FF")
	for i, floor := range floors {
		rep := out[1+i].rep
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
	out, err := cfg.run(grid([]string{"Kuu"}, []core.SchemeSpec{{Kind: core.RD}, {Kind: core.TMR}})...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Redundancy degree: Kuu analog, %d faults", cfg.Faults),
		"Scheme", "Iters/FF", "Time/FF", "Power/FF", "Energy/FF")
	for _, o := range out {
		rep, ff := o.rep, o.ff
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
