package experiments

import (
	"fmt"

	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/recovery"
	"resilience/internal/report"
)

func init() {
	register("ablation-multilevel", "Ablation: two-level checkpointing under mixed fault classes", runAblationMultilevel)
	register("ablation-sdc", "Ablation: silent-corruption detection latency", runAblationSDC)
	register("ablation-construction", "Ablation: DVFS savings vs construction-cost fraction", runAblationConstructionCost)
}

// runAblationMultilevel compares CR-M, CR-D and the SCR-style two-level
// CR-2L under a fault mix where most failures are single-node but some
// are system-wide outages. Memory checkpoints do not survive an outage,
// so CR-M pays full restarts there; CR-2L falls back to its disk level.
func runAblationMultilevel(cfg Config) (*Result, error) {
	base, err := cfg.run(cell{matrix: "crystm02"})
	if err != nil {
		return nil, err
	}
	ckptEvery := 100
	if base[0].ff.Iters < 400 {
		ckptEvery = 10
	}
	cells := grid([]string{"crystm02"}, []core.SchemeSpec{
		{Kind: core.CRM, CkptEvery: ckptEvery},
		{Kind: core.CRD, CkptEvery: ckptEvery},
		{Kind: core.CR2L, CkptEvery: ckptEvery},
	})
	for i := range cells {
		cells[i].classes = []fault.Class{fault.SNF, fault.SNF, fault.SNF, fault.SWO}
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("Two-level checkpointing: crystm02 analog, %d faults (every 4th a system-wide outage)", cfg.Faults),
		"Scheme", "Checkpoints", "Iters/FF", "Time/FF", "Energy/FF")
	for _, o := range out {
		rep, ff := o.rep, o.ff
		t.AddF(rep.Scheme, rep.Checkpoints, float64(rep.Iters)/float64(ff.Iters),
			rep.Time/ff.Time, rep.Energy/ff.Energy)
	}
	return &Result{
		ID:     "ablation-multilevel",
		Title:  "Two-level checkpointing under mixed fault classes",
		Tables: []*report.Table{t},
		Notes: []string{
			"Expectation: CR-M loses its memory checkpoints at each outage (costly full restarts); CR-D survives everything but pays disk on every checkpoint; CR-2L approaches CR-M's cost while keeping CR-D's coverage.",
		},
	}, nil
}

// runAblationSDC studies silent data corruption that propagates for a
// detection latency before recovery runs — the regime the paper excludes
// by assuming prompt detection (Section 3), built on the SDC-propagation
// literature it cites.
func runAblationSDC(cfg Config) (*Result, error) {
	base, err := cfg.run(cell{matrix: "Kuu"})
	if err != nil {
		return nil, err
	}
	nFaults := 3
	// The eligible delays depend only on the FF baseline.
	var cells []cell
	for _, d := range []int{0, 2, 8, 32} {
		if d > base[0].ff.Iters/4 {
			break
		}
		cells = append(cells, cell{matrix: "Kuu", scheme: core.SchemeSpec{Kind: core.LI},
			faults: nFaults, classes: []fault.Class{fault.SDC}, delay: d})
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("SDC detection latency: Kuu analog, %d silent corruptions, LI recovery", nFaults),
		"Detection delay (iters)", "Iters", "Iters/FF", "Time/FF", "Energy/FF")
	for i, o := range out {
		rep, ff := o.rep, o.ff
		t.AddF(cells[i].delay, rep.Iters, float64(rep.Iters)/float64(ff.Iters),
			rep.Time/ff.Time, rep.Energy/ff.Energy)
	}
	return &Result{
		ID:     "ablation-sdc",
		Title:  "Silent-corruption detection latency",
		Tables: []*report.Table{t},
		Notes: []string{
			"Expectation: the longer a corruption propagates through SpMV before detection, the more iterations recovery must win back — prompt detection (the paper's assumption) is the best case.",
		},
	}, nil
}

// runAblationConstructionCost shows how the whole-run energy saving of
// DVFS grows with the fraction of the run spent reconstructing — the
// scale effect separating our CI-scale Fig. 7(b) numbers from the
// paper's 11-16%. Fewer ranks mean larger per-rank blocks, and the exact
// (LU) construction's cubic cost then dominates the run.
func runAblationConstructionCost(cfg Config) (*Result, error) {
	var plist []int
	switch cfg.Scale {
	case matgen.Tiny:
		plist = []int{8, 4}
	default:
		plist = []int{32, 8, 4}
	}
	// One pair of cells per rank count, 5 faults each: LI(LU) keeping its
	// power segments for the reconstruction-window fraction, then
	// LI(LU)-DVFS.
	var cells []cell
	for _, p := range plist {
		for _, dvfs := range []bool{false, true} {
			cells = append(cells, cell{matrix: "nd24k", ranks: p, faults: 5, keepSegs: !dvfs,
				scheme: core.SchemeSpec{Kind: core.LI, Construct: recovery.ConstructExact, DVFS: dvfs}})
		}
	}
	out, err := cfg.run(cells...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Construction-cost ablation: nd24k analog, LI(LU) vs LI(LU)-DVFS",
		"#p", "Reconstr. frac of run", "E(no DVFS)/FF", "E(DVFS)/FF", "DVFS saving")
	for pi, p := range plist {
		ff, plain, dvfs := out[2*pi].ff, out[2*pi].rep, out[2*pi+1].rep
		var reconDur float64
		for _, w := range plain.Meter.PhaseWindows(obs.SpanReconstruct.String()) {
			reconDur += w[1] - w[0]
		}
		t.AddF(p, reconDur/plain.Time, plain.Energy/ff.Energy, dvfs.Energy/ff.Energy,
			(plain.Energy-dvfs.Energy)/plain.Energy)
	}
	return &Result{
		ID:     "ablation-construction",
		Title:  "DVFS savings vs construction-cost fraction",
		Tables: []*report.Table{t},
		Notes: []string{
			"Expectation: the larger the share of the run spent reconstructing, the closer the whole-run DVFS saving approaches the paper's 11-16% regime.",
		},
	}, nil
}
