package experiments

import (
	"math"
	"strconv"
	"testing"

	"resilience/internal/core"
	"resilience/internal/matgen"
	"resilience/internal/report"
)

// These tests assert the paper's qualitative claims — the orderings and
// shapes its figures and tables report — at tiny scale, where the full
// suite runs in seconds. Quantitative CI-scale values live in
// EXPERIMENTS.md.

func tinyCfg() Config { return Default(matgen.Tiny) }

// num parses a float cell from a report table.
func num(t *testing.T, tb *report.Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

// colIndex finds a column by header.
func colIndex(t *testing.T, tb *report.Table, name string) int {
	t.Helper()
	for i, c := range tb.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, tb.Columns)
	return -1
}

// TestFig1ClassTable: one row per fault class plus the combined row, each
// class labelled soft or hard, and every system shorter-lived than its node.
func TestFig1ClassTable(t *testing.T) {
	res, err := Get2(t, "fig1").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("%d rows, want 6 fault classes and the combined row", len(tb.Rows))
	}
	iKind := colIndex(t, tb, "Soft/Hard")
	iNode := colIndex(t, tb, "Node MTBF petascale (h)")
	iPeta := colIndex(t, tb, "Petascale MTBF (h)")
	iExa := colIndex(t, tb, "Exascale MTBF (h)")
	want := map[string]string{"DCE": "soft", "DUE": "soft", "SDC": "soft", "SWO": "hard", "SNF": "hard", "LNF": "hard", "combined": ""}
	for r, row := range tb.Rows {
		kind, ok := want[row[0]]
		if !ok {
			t.Errorf("row %d: unexpected class %q", r, row[0])
			continue
		}
		delete(want, row[0])
		if row[iKind] != kind {
			t.Errorf("%s: labelled %q, want %q", row[0], row[iKind], kind)
		}
		node, peta, exa := num(t, tb, r, iNode), num(t, tb, r, iPeta), num(t, tb, r, iExa)
		if !(node > peta && peta > exa && exa > 0) {
			t.Errorf("%s: node %g, petascale %g, exascale %g h not strictly shrinking", row[0], node, peta, exa)
		}
	}
	for class := range want {
		t.Errorf("class %s missing", class)
	}
}

// TestFig1SweepTable: the combined MTBF over machine sizes from 1024 nodes
// up to the exascale node count in steps of 4x, shrinking as nodes grow.
func TestFig1SweepTable(t *testing.T) {
	res, err := Get2(t, "fig1").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("%d tables, want the class table and the node-count sweep", len(res.Tables))
	}
	tb := res.Tables[1]
	if len(tb.Rows) != 5 {
		t.Fatalf("sweep has %d rows, want 1024..262144 nodes", len(tb.Rows))
	}
	iMin := colIndex(t, tb, "MTBF (min)")
	for r := range tb.Rows {
		if nodes := num(t, tb, r, 0); nodes != float64(int(1024)<<(2*r)) {
			t.Errorf("row %d: %g nodes, want %d", r, nodes, 1024<<(2*r))
		}
		if r > 0 && num(t, tb, r, 1) >= num(t, tb, r-1, 1) {
			t.Errorf("row %d: MTBF does not shrink with node count", r)
		}
		// Both cells are printed to 3 decimals.
		if h, m := num(t, tb, r, 1), num(t, tb, r, iMin); math.Abs(h*60-m) > 0.0005*61 {
			t.Errorf("row %d: %g h is not %g min", r, h, m)
		}
	}
}

func TestTab4Claims(t *testing.T) {
	res, err := Get2(t, "tab4").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	iRD := colIndex(t, tb, "RD")
	iF0 := colIndex(t, tb, "F0")
	iLI := colIndex(t, tb, "LI")
	iCR := colIndex(t, tb, "CR-D")
	for r := range tb.Rows {
		rd, f0, li, cr := num(t, tb, r, iRD), num(t, tb, r, iF0), num(t, tb, r, iLI), num(t, tb, r, iCR)
		// RD matches the fault-free run.
		if rd != 1 {
			t.Errorf("row %d: RD %g != 1", r, rd)
		}
		// F0 is the worst; LI beats F0; CR sits between LI and F0.
		if li >= f0 {
			t.Errorf("row %d: LI %g not better than F0 %g", r, li, f0)
		}
		if cr > f0+1e-9 {
			t.Errorf("row %d: CR %g worse than F0 %g", r, cr, f0)
		}
	}
	// Process-count invariance: each scheme's ratio varies by < 25%
	// across rows (the paper's Table 4 shows it constant).
	for _, col := range []int{iF0, iLI, iCR} {
		lo, hi := 1e18, 0.0
		for r := range tb.Rows {
			v := num(t, tb, r, col)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi/lo > 1.25 {
			t.Errorf("column %s varies %gx across process counts", tb.Columns[col], hi/lo)
		}
	}
}

func TestFig4Claims(t *testing.T) {
	res, err := Get2(t, "fig4").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range res.Tables {
		iImp := colIndex(t, tb, "vs exact")
		best := -1e18
		for r := 1; r < len(tb.Rows); r++ {
			if v := num(t, tb, r, iImp); v > best {
				best = v
			}
		}
		// The paper reports a 4-15% improvement; at simulator scales the
		// CG construction must at least beat the exact baseline.
		if best <= 0 {
			t.Errorf("%s: best CG improvement %g not positive", tb.Title, best)
		}
	}
}

func TestFig5Claims(t *testing.T) {
	res, err := Get2(t, "fig5").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	iRD := colIndex(t, tb, "RD")
	iF0 := colIndex(t, tb, "F0")
	iFI := colIndex(t, tb, "FI")
	iLI := colIndex(t, tb, "LI")
	iLSI := colIndex(t, tb, "LSI")
	avg := len(tb.Rows) - 1 // last row is the average
	rd, f0, fi, li, lsi := num(t, tb, avg, iRD), num(t, tb, avg, iF0),
		num(t, tb, avg, iFI), num(t, tb, avg, iLI), num(t, tb, avg, iLSI)
	if rd != 1 {
		t.Errorf("RD average %g", rd)
	}
	// F0 and FI are the worst pair and essentially equal.
	if f0 <= li || f0 <= lsi {
		t.Errorf("F0 %g must exceed LI %g and LSI %g", f0, li, lsi)
	}
	if d := f0 - fi; d < -0.1 || d > 0.1 {
		t.Errorf("F0 %g and FI %g should be close", f0, fi)
	}
	// Every scheme needs at least as many iterations as fault-free.
	for r := 0; r < avg; r++ {
		for _, c := range []int{iF0, iFI, iLI, iLSI} {
			if v := num(t, tb, r, c); v < 1 {
				t.Errorf("row %d col %s: normalized iterations %g < 1", r, tb.Columns[c], v)
			}
		}
	}
}

func TestFig7aClaims(t *testing.T) {
	res, err := Get2(t, "fig7").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0] // power profile table: LI row then LI-DVFS row
	iRecon := colIndex(t, tb, "Reconstr. power/FF")
	li := num(t, tb, 0, iRecon)
	dvfs := num(t, tb, 1, iRecon)
	// The reconstruction-phase power drop is the paper's headline claim:
	// ~0.75x without DVFS, ~0.45x with.
	if dvfs >= li {
		t.Fatalf("DVFS reconstruction power %g not below plain %g", dvfs, li)
	}
	if li < 0.6 || li > 0.95 {
		t.Errorf("plain LI reconstruction power %g, paper ~0.75", li)
	}
	if dvfs < 0.3 || dvfs > 0.7 {
		t.Errorf("LI-DVFS reconstruction power %g, paper ~0.45", dvfs)
	}
}

func TestTab5Claims(t *testing.T) {
	res, err := Get2(t, "tab5").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	vals := map[string][3]float64{}
	for r := range tb.Rows {
		vals[tb.Rows[r][0]] = [3]float64{
			num(t, tb, r, 1), num(t, tb, r, 2), num(t, tb, r, 3),
		}
	}
	rd := vals["RD"]
	if rd[0] > 1.05 || rd[1] < 1.95 || rd[1] > 2.05 || rd[2] < 1.9 || rd[2] > 2.15 {
		t.Errorf("RD row %v, paper {1, 2, 2}", rd)
	}
	// CR-D takes the most time and energy among the compared schemes.
	crd := vals["CR-D"]
	for _, s := range []string{"LI-DVFS", "LSI-DVFS", "CR-M"} {
		if vals[s][0] >= crd[0] {
			t.Errorf("%s time %g not below CR-D %g", s, vals[s][0], crd[0])
		}
		if vals[s][2] >= crd[2] {
			t.Errorf("%s energy %g not below CR-D %g", s, vals[s][2], crd[2])
		}
	}
	// LI-DVFS costs less than LSI-DVFS (cheaper construction).
	if vals["LI-DVFS"][2] >= vals["LSI-DVFS"][2] {
		t.Errorf("LI-DVFS energy %g not below LSI-DVFS %g",
			vals["LI-DVFS"][2], vals["LSI-DVFS"][2])
	}
}

func TestTab6Claims(t *testing.T) {
	res, err := Get2(t, "tab6").Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	// RD row: model and measurement both at {0, 2, 1}.
	for r := range tb.Rows {
		if tb.Rows[r][0] != "RD" {
			continue
		}
		if num(t, tb, r, 1) != 0 || num(t, tb, r, 2) != 2 || num(t, tb, r, 3) != 1 {
			t.Errorf("RD model row wrong: %v", tb.Rows[r])
		}
		if mp := num(t, tb, r, 5); mp < 1.9 || mp > 2.1 {
			t.Errorf("RD measured power %g", mp)
		}
	}
	// Model and measurement agree within a factor for every scheme row.
	for r := 1; r < len(tb.Rows); r++ {
		model := num(t, tb, r, 1)
		meas := num(t, tb, r, 4)
		if meas > 0.01 && model > 0.01 {
			if ratio := model / meas; ratio < 0.1 || ratio > 10 {
				t.Errorf("%s: model T_res %g vs measured %g", tb.Rows[r][0], model, meas)
			}
		}
	}
}

// Get2 wraps Get with a fatal error on missing runners.
func Get2(t *testing.T, id string) Runner {
	t.Helper()
	r, ok := Get(id)
	if !ok {
		t.Fatalf("no runner %q", id)
	}
	return r
}

// TestLoadSystemCaching: the engine generates one system per catalog
// name and scale, and refuses an unknown name.
func TestLoadSystemCaching(t *testing.T) {
	cfg := tinyCfg()
	a, err := cfg.generate("Kuu")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.generate("Kuu")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("the engine must generate one system per name+scale")
	}
	if _, err := cfg.generate("nonexistent"); err == nil {
		t.Error("unknown matrix accepted")
	}
	if _, err := cfg.run(cell{matrix: "nonexistent"}); err == nil {
		t.Error("a cell on an unknown matrix ran")
	}
}

// TestBaseConfigClampsRanks: a cell's rank count, the Config's or its
// own, is clamped to half the rows.
func TestBaseConfigClampsRanks(t *testing.T) {
	cfg := tinyCfg()
	cfg.Ranks = 1 << 20
	g, err := cfg.generate("bcsstk06")
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []cell{{matrix: "bcsstk06"}, {matrix: "bcsstk06", ranks: 1 << 21}} {
		rc := cfg.runConfig(cfg.resolve(cl), g)
		if rows := g.sys.A.Rows; rc.Ranks > rows/2 {
			t.Errorf("ranks %d not clamped for %d rows", rc.Ranks, rows)
		}
	}
}

// TestFaultFreeCachePerRankCount: a cell's baseline is the one of its
// rank count, and every later cell of that rank count reuses it.
func TestFaultFreeCachePerRankCount(t *testing.T) {
	cfg := tinyCfg()
	out, err := cfg.run(cell{matrix: "wathen100"}, cell{matrix: "wathen100", ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ff == out[1].ff {
		t.Error("fault-free cache must key on rank count")
	}
	again, err := cfg.run(cell{matrix: "wathen100", scheme: core.SchemeSpec{Kind: core.LI}})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].ff != out[0].ff {
		t.Error("fault-free baseline not cached")
	}
}

// TestRunSchemeDerivesIntervalForEveryCheckpointingScheme: a checkpointing
// cell that names no interval gets Young's from the MTBF its fault schedule
// implies. CR-2L was once missing from the experiments' own kind list and
// died in core with "CR scheme needs CkptEvery or CkptMTBF".
func TestRunSchemeDerivesIntervalForEveryCheckpointingScheme(t *testing.T) {
	cfg := tinyCfg()
	for _, kind := range []core.SchemeKind{core.CRM, core.CRD, core.CR2L, core.LCR} {
		out, err := cfg.run(cell{matrix: "bcsstk06", scheme: core.SchemeSpec{Kind: kind}})
		if err != nil {
			t.Errorf("%s with no interval: %v", kind, err)
			continue
		}
		if rep := out[0].rep; !rep.Converged || rep.Checkpoints == 0 {
			t.Errorf("%s: converged=%v after %d checkpoints", kind, rep.Converged, rep.Checkpoints)
		}
	}
}

// TestSameSolveRunsOnce: cells that resolve to one solve share one
// report — FI with F0 (every solve starts from x0 = 0), and a cell listed
// twice — while distinct cells get their own.
func TestSameSolveRunsOnce(t *testing.T) {
	cfg := tinyCfg()
	li := cell{matrix: "Kuu", scheme: core.SchemeSpec{Kind: core.LI}}
	out, err := cfg.run(
		cell{matrix: "Kuu", scheme: core.SchemeSpec{Kind: core.F0}},
		cell{matrix: "Kuu", scheme: core.SchemeSpec{Kind: core.FI}},
		li, li,
		cell{matrix: "Kuu", scheme: core.SchemeSpec{Kind: core.LI}, ranks: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].rep != out[1].rep {
		t.Error("FI's cell did not read F0's run")
	}
	if out[2].rep != out[3].rep {
		t.Error("a cell listed twice was solved twice")
	}
	if out[0].rep == out[2].rep || out[2].rep == out[4].rep {
		t.Error("distinct cells share a report")
	}
	for i, o := range out {
		if o.ff == nil || o.ff.Ranks != o.rep.Ranks {
			t.Errorf("cell %d: baseline %+v does not match its %d-rank run", i, o.ff, o.rep.Ranks)
		}
	}
}

func TestRunnersHaveTitlesAndOrder(t *testing.T) {
	all := All()
	if len(all) < 19 {
		t.Fatalf("only %d runners", len(all))
	}
	for _, r := range all {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r.ID)
		}
	}
	// Paper order: fig1 first, fig9 before the ablations.
	if all[0].ID != "fig1" {
		t.Errorf("first runner %s", all[0].ID)
	}
	pos := map[string]int{}
	for i, r := range all {
		pos[r.ID] = i
	}
	if pos["fig9"] > pos["ablation-interval"] {
		t.Error("fig9 must precede the ablations")
	}
}

// TestFig6SingleFaultAnySeed: fig6(a)'s one fault strikes a rank of the
// run for every seed, negative ones included (a negative seed once named
// rank -1, which no rank answers to, so the fault struck nobody).
func TestFig6SingleFaultAnySeed(t *testing.T) {
	for _, seed := range []int64{-1, -9, 0, 3} {
		cfg := tinyCfg()
		cfg.Seed = seed
		schemes := cfg.schemeSet()
		cells := grid([]string{"Kuu"}, schemes)
		for i := range cells {
			cells[i].inject = singleFault{iter: 5}
		}
		out, err := cfg.run(cells...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, spec := range schemes {
			rep := out[i].rep
			if len(rep.Faults) != 1 {
				t.Fatalf("seed %d, %s: %d faults, want 1", seed, spec.Name(), len(rep.Faults))
			}
			if r, ranks := rep.Faults[0].Rank, rep.Ranks; r < 0 || r >= ranks {
				t.Errorf("seed %d, %s: fault on rank %d of %d", seed, spec.Name(), r, ranks)
			}
		}
	}
}
