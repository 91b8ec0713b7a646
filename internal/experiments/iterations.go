package experiments

import (
	"fmt"
	"math"

	"resilience/internal/core"
	"resilience/internal/matgen"
	"resilience/internal/report"
	"resilience/internal/solver"
)

func init() {
	register("tab3", "Matrix catalog (Table 3): synthetic analogs and fault-free iterations", runTab3)
	register("tab4", "Iterations vs parallelism (Table 4): crystm02, 10 faults", runTab4)
	register("fig5", "Iterations to convergence per matrix (Figure 5): 10 faults, normalized to FF", runFig5)
	register("fig6", "Residual histories (Figure 6): single fault and 10-fault stencil", runFig6)
}

// runTab3 reproduces Table 3: the matrix catalog with measured fault-free
// iteration counts of the synthetic analogs.
func runTab3(cfg Config) (*Result, error) {
	specs := matgen.Catalog()
	type tab3Cell struct {
		rows, nnzPerRow int
		measured        string
	}
	cells := make([]tab3Cell, len(specs))
	err := cfg.runCells(len(specs), func(i int) error {
		spec := specs[i]
		a := spec.Generate(cfg.Scale)
		b, _ := matgen.RHS(a)
		iters, conv := solver.SolveFaultFreeIters(a, b, cfg.Tol, 40*spec.TargetIters(cfg.Scale))
		measured := fmt.Sprintf("%d", iters)
		if !conv {
			measured += " (not converged)"
		}
		cells[i] = tab3Cell{rows: a.Rows, nnzPerRow: a.NNZ() / a.Rows, measured: measured}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 3 analogs at scale "+cfg.Scale.String(),
		"Name", "#Rows(paper)", "#Rows(gen)", "#NNZ/row(paper)", "#NNZ/row(gen)",
		"Kind", "#Iters(paper)", "#Iters(target)", "#Iters(measured)")
	for i, spec := range specs {
		t.AddF(spec.Name, spec.PaperRows, cells[i].rows, spec.NNZPerRow, cells[i].nnzPerRow,
			spec.Kind, spec.PaperIters, spec.TargetIters(cfg.Scale), cells[i].measured)
	}
	return &Result{
		ID:     "tab3",
		Title:  "Matrix properties (Table 3)",
		Tables: []*report.Table{t},
		Notes: []string{
			"SuiteSparse is unavailable offline; analogs match size, sparsity and a conditioning target (see DESIGN.md).",
		},
	}, nil
}

// runTab4 reproduces Table 4: normalized iterations to converge for
// crystm02 under each scheme at several process counts.
func runTab4(cfg Config) (*Result, error) {
	var plist []int
	switch cfg.Scale {
	case matgen.Tiny:
		plist = []int{2, 4, 8}
	case matgen.CI:
		plist = []int{4, 16, 64}
	default:
		plist = []int{4, 16, 64, 256}
	}
	schemes := cfg.schemeSet()
	cols := []string{"#p", "FF"}
	for _, sc := range schemes {
		cols = append(cols, sc.Name())
	}
	var cells []cell
	for _, p := range plist {
		for _, sc := range schemes {
			cells = append(cells, cell{matrix: "crystm02", scheme: sc, ranks: p})
		}
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 4: normalized iterations, crystm02 analog, 10 faults", cols...)
	for pi, p := range plist {
		row := []any{p, 1.0}
		for si := range schemes {
			o := out[pi*len(schemes)+si]
			row = append(row, float64(o.rep.Iters)/float64(o.ff.Iters))
		}
		t.AddF(row...)
	}
	return &Result{
		ID:     "tab4",
		Title:  "Resilience vs parallelization (Table 4)",
		Tables: []*report.Table{t},
		Notes: []string{
			"Paper expectation: per-scheme ratios are constant across process counts; RD≈1, F0/FI worst (~2.2), LI/LSI≈1.44, CR≈1.55.",
		},
	}, nil
}

// fig5Matrices are the Figure 5 workloads: the full Table 3 catalog.
func fig5Matrices() []string {
	names := make([]string, 0, 14)
	for _, s := range matgen.Catalog() {
		names = append(names, s.Name)
	}
	return names
}

// runFig5 reproduces Figure 5: normalized iterations per matrix per
// scheme with 10 faults.
func runFig5(cfg Config) (*Result, error) {
	schemes := cfg.schemeSet()
	cols := []string{"Matrix", "FF(iters)"}
	for _, sc := range schemes {
		cols = append(cols, sc.Name())
	}
	names := fig5Matrices()
	out, err := cfg.run(grid(names, schemes)...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Figure 5: normalized iterations, %d ranks, %d faults", cfg.Ranks, cfg.Faults), cols...)
	sums := make([]float64, len(schemes))
	for mi, name := range names {
		row := []any{name, out[mi*len(schemes)].ff.Iters}
		for si := range schemes {
			o := out[mi*len(schemes)+si]
			norm := float64(o.rep.Iters) / float64(o.ff.Iters)
			sums[si] += norm
			row = append(row, norm)
		}
		t.AddF(row...)
	}
	avg := []any{"average", ""}
	for _, v := range sums {
		avg = append(avg, v/float64(len(names)))
	}
	t.AddF(avg...)
	return &Result{
		ID:     "fig5",
		Title:  "Iterations to convergence per matrix (Figure 5)",
		Tables: []*report.Table{t},
		Notes: []string{
			"Paper expectation: F0/FI worst (~2.5x average), RD lowest (1x), LI/LSI beat CR on regular matrices and degrade toward F0/FI on irregular ones (bcsstk06, ex10hs).",
		},
	}, nil
}

// runFig6 reproduces Figure 6: residual-vs-iteration histories.
func runFig6(cfg Config) (*Result, error) {
	schemes := append([]core.SchemeSpec{{Kind: core.FF}}, cfg.schemeSet()...)

	// (a) one fault at a fixed iteration on a mid-sized regular matrix;
	// (b) the 5-point stencil with the standard schedule.
	base, err := cfg.run(cell{matrix: "Kuu"})
	if err != nil {
		return nil, err
	}
	faultIter := min(200, base[0].ff.Iters/2)
	cells := grid([]string{"Kuu", "5-point stencil"}, schemes)
	for i, sc := range schemes {
		if sc.Kind != core.FF {
			cells[i].inject = singleFault{iter: faultIter}
		}
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	outA, outB := out[:len(schemes)], out[len(schemes):]
	tA := report.NewTable(fmt.Sprintf("Figure 6(a): Kuu analog, 1 fault at iteration %d", faultIter),
		"Scheme", "Iters", "Iters/FF", "Residual history (log-scale sparkline)")
	for i, sc := range schemes {
		rep, ff := outA[i].rep, outA[i].ff
		tA.AddF(sc.Name(), rep.Iters, float64(rep.Iters)/float64(ff.Iters),
			report.Sparkline(logs(rep.History), 60))
	}

	tB := report.NewTable(fmt.Sprintf("Figure 6(b): 5-point stencil, %d faults", cfg.Faults),
		"Scheme", "Iters", "Iters/FF", "Residual history (log-scale sparkline)")
	for i, sc := range schemes {
		rep, ff := outB[i].rep, outB[i].ff
		tB.AddF(sc.Name(), rep.Iters, float64(rep.Iters)/float64(ff.Iters),
			report.Sparkline(logs(rep.History), 60))
	}
	return &Result{
		ID:     "fig6",
		Title:  "Residual histories under faults (Figure 6)",
		Tables: []*report.Table{tA, tB},
		Notes: []string{
			"Paper expectation: RD overlaps FF; F0/FI jump the most at the fault; LI/LSI jump minimally; CR shows a rollback plateau.",
		},
	}, nil
}

// logs maps a residual history to log10 for sparkline display.
func logs(h []float64) []float64 {
	out := make([]float64, len(h))
	for i, v := range h {
		if v <= 0 {
			v = 1e-300
		}
		out[i] = math.Log10(v)
	}
	return out
}
