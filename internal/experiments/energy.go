package experiments

import (
	"fmt"
	"math"

	"resilience/internal/core"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/report"
)

func init() {
	register("fig3", "Accuracy and cost of recovery mechanisms (Figure 3): Andrews, Poisson faults", runFig3)
	register("fig7", "DVFS power reduction and energy savings (Figure 7)", runFig7)
	register("tab5", "Time/power/energy cost of resilience (Table 5): averages over all matrices", runTab5)
	register("fig8", "Best scheme per workload (Figure 8): x104, nd24k, cvxbqp1", runFig8)
}

// runFig3 reproduces Figure 3: time and energy overhead of CR, RD and FW
// on the Andrews workload under MTBF-driven Poisson faults. The paper
// uses MTBF = 0.1h on a run lasting a sizable fraction of that; the
// simulated run is shorter, so the MTBF is scaled to preserve the
// expected fault count (documented substitution).
func runFig3(cfg Config) (*Result, error) {
	base, err := cfg.run(cell{matrix: "Andrews"})
	if err != nil {
		return nil, err
	}
	ff := base[0].ff
	// Expected faults over the run, matching the paper's fault pressure.
	// The MTBF must stay well above the per-fault recovery cost or
	// progress halts (the paper's own Section 6 caveat); tiny-scale runs
	// are short enough that a gentler rate is needed.
	expectedFaults := 4.0
	if cfg.Scale == matgen.Tiny {
		expectedFaults = 1.5
	}
	mtbf := ff.Time / expectedFaults
	draws := poisson{mtbf: mtbf, limit: int(3*expectedFaults) + 2}

	cells := grid([]string{"Andrews"}, []core.SchemeSpec{
		{Kind: core.CRD, CkptMTBF: mtbf},
		{Kind: core.RD},
		{Kind: core.LI, DVFS: true},
		{Kind: core.ESR},
		{Kind: core.LCR, CkptMTBF: mtbf},
	})
	for i := range cells {
		cells[i].inject = draws
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 3: Andrews analog, %d ranks, Poisson MTBF=%.3gs (=%g expected faults)",
			ff.Ranks, mtbf, expectedFaults),
		"Scheme", "RelRes", "Time/FF", "Energy/FF", "Time ovh", "Energy ovh")
	t.AddF("FF", ff.RelRes, 1.0, 1.0, 0.0, 0.0)
	for _, o := range out {
		rep := o.rep
		t.AddF(rep.Scheme, rep.RelRes,
			rep.Time/ff.Time, rep.Energy/ff.Energy,
			rep.Time/ff.Time-1, rep.Energy/ff.Energy-1)
	}
	return &Result{
		ID:     "fig3",
		Title:  "Accuracy and cost of different recovery mechanisms (Figure 3)",
		Tables: []*report.Table{t},
		Notes: []string{
			"Paper expectation: every mechanism costs up to ~2x; FW has the least energy overhead (~30% vs ~68% CR, ~63% RD); RD has no time overhead but doubles energy.",
			"Extension rows: ESR persists x/p redundancy every iteration and reconstructs exactly with no rollback; LCR compresses checkpoints 8x and pays a re-convergence penalty per restore.",
		},
	}, nil
}

// runFig7 reproduces Figure 7: (a) the power profile of nd24k under LI
// vs LI-DVFS and the reconstruction-phase power drop; (b) average
// normalized time/power/energy for all matrices with and without DVFS.
func runFig7(cfg Config) (*Result, error) {
	// (a) the power profile on nd24k, keeping its segments; (b) averages
	// over the whole catalog, one cell per (matrix, scheme).
	profile := []cell{
		{matrix: "nd24k", scheme: core.SchemeSpec{Kind: core.LI}, keepSegs: true},
		{matrix: "nd24k", scheme: core.SchemeSpec{Kind: core.LI, DVFS: true}, keepSegs: true},
	}
	specs := []core.SchemeSpec{
		{Kind: core.LI},
		{Kind: core.LI, DVFS: true},
		{Kind: core.LSI},
		{Kind: core.LSI, DVFS: true},
	}
	names := fig5Matrices()
	out, err := cfg.run(append(profile, grid(names, specs)...)...)
	if err != nil {
		return nil, err
	}
	normalPower := out[0].ff.AvgPower
	tA := report.NewTable("Figure 7(a): nd24k analog power profile, LI vs LI-DVFS",
		"Scheme", "Avg power/FF", "Reconstr. power/FF", "Reconstr. windows", "Node power timeline")
	for _, o := range out[:len(profile)] {
		rep := o.rep
		reconP, nWindows := reconstructionPower(rep)
		timeline := rep.Meter.Timeline(rep.Time / 120)
		watts := make([]float64, len(timeline))
		for i, p := range timeline {
			watts[i] = p.Watts
		}
		tA.AddF(rep.Scheme, rep.AvgPower/normalPower, reconP/normalPower, nWindows,
			report.Sparkline(watts, 60))
	}

	tB := report.NewTable(fmt.Sprintf("Figure 7(b): averages over %d matrices, %d faults", len(names), cfg.Faults),
		"Scheme", "T/FF", "P/FF", "E/FF", "E_res/E_solve")
	for i, spec := range specs {
		var t, p, e, eres float64
		for mi := range names {
			o := out[len(profile)+mi*len(specs)+i]
			t += o.rep.Time / o.ff.Time
			p += o.rep.AvgPower / o.ff.AvgPower
			e += o.rep.Energy / o.ff.Energy
			eres += (o.rep.Energy - o.ff.Energy) / o.ff.Energy
		}
		n := float64(len(names))
		tB.AddF(spec.Name(), t/n, p/n, e/n, eres/n)
	}
	return &Result{
		ID:     "fig7",
		Title:  "Power reduction and energy savings with DVFS (Figure 7)",
		Tables: []*report.Table{tA, tB},
		Notes: []string{
			"Paper expectation: (a) LI-DVFS cuts reconstruction-phase node power ~39-40% (0.75x -> 0.45x of normal) with no performance loss; (b) LI-DVFS and LSI-DVFS keep T and cut E by ~11%/16%.",
		},
	}, nil
}

// reconstructionPower returns the mean cluster power inside reconstruction
// windows and the window count.
func reconstructionPower(rep *core.RunReport) (watts float64, windows int) {
	if rep.Meter == nil {
		return 0, 0
	}
	ws := rep.Meter.PhaseWindows(obs.SpanReconstruct.String())
	if len(ws) == 0 {
		return 0, 0
	}
	var energy, dur float64
	for _, seg := range rep.Meter.Segments() {
		for _, w := range ws {
			lo := math.Max(seg.Start, w[0])
			hi := math.Min(seg.End(), w[1])
			if hi > lo {
				energy += seg.Watts * (hi - lo)
			}
		}
	}
	for _, w := range ws {
		dur += w[1] - w[0]
	}
	if dur == 0 {
		return 0, len(ws)
	}
	return energy / dur * float64(rep.Redundancy), len(ws)
}

// runTab5 reproduces Table 5: normalized time, power and energy of each
// scheme averaged over the full catalog, with Young-interval CR.
func runTab5(cfg Config) (*Result, error) {
	specs := energySchemeSet()
	names := fig5Matrices()
	out, err := cfg.run(grid(names, specs)...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Table 5: normalized cost of resilience, averaged over %d matrices", len(names)),
		"Scheme", "Time", "Power", "Energy", "E_res")
	t.AddF("FF", 1.0, 1.0, 1.0, 0.0)
	n := float64(len(names))
	for i, spec := range specs {
		var tm, p, e float64
		for mi := range names {
			o := out[mi*len(specs)+i]
			tm += o.rep.Time / o.ff.Time
			p += o.rep.AvgPower / o.ff.AvgPower
			e += o.rep.Energy / o.ff.Energy
		}
		// E_res normalized by the fault-free energy: E/FF - 1.
		t.AddF(spec.Name(), tm/n, p/n, e/n, e/n-1)
	}
	return &Result{
		ID:     "tab5",
		Title:  "Time and energy cost of resilience (Table 5)",
		Tables: []*report.Table{t},
		Notes: []string{
			"Paper expectation: RD {1, 2, 2}; LI-DVFS least energy overhead among FW; CR-M least time overhead after RD; CR-D most time and energy; checkpoint interval from Young's formula.",
			"E_res is the resilience energy overhead normalized by the fault-free energy (E/FF - 1). Extension rows ESR and LCR trade persist traffic and compression error against rollback.",
		},
	}, nil
}

// runFig8 reproduces Figure 8: normalized time, energy and average power
// for the three contrasting workloads.
func runFig8(cfg Config) (*Result, error) {
	matrices := []string{"x104", "nd24k", "cvxbqp1"}
	specs := energySchemeSet()
	out, err := cfg.run(grid(matrices, specs)...)
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	for mi, name := range matrices {
		ff := out[mi*len(specs)].ff
		t := report.NewTable(fmt.Sprintf("Figure 8: %s analog (FF iters=%d)", name, ff.Iters),
			"Scheme", "Time/FF", "Energy/FF", "Power/FF")
		t.AddF("FF", 1.0, 1.0, 1.0)
		for si := range specs {
			rep := out[mi*len(specs)+si].rep
			t.AddF(rep.Scheme, rep.Time/ff.Time, rep.Energy/ff.Energy, rep.AvgPower/ff.AvgPower)
		}
		tables = append(tables, t)
	}
	return &Result{
		ID:     "fig8",
		Title:  "Normalized time, energy and power for contrasting matrices (Figure 8)",
		Tables: tables,
		Notes: []string{
			"Paper expectation: best scheme depends on the workload — CR-M for irregular x104, RD for dense-row nd24k, FW for regular cvxbqp1.",
		},
	}, nil
}
