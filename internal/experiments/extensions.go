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
	s, err := cfg.loadSystem("crystm02")
	if err != nil {
		return nil, err
	}
	ff, err := cfg.faultFree(s)
	if err != nil {
		return nil, err
	}
	ckptEvery := 100
	if ff.Iters < 400 {
		ckptEvery = 10
	}
	classes := []fault.Class{fault.SNF, fault.SNF, fault.SNF, fault.SWO}
	specs := []core.SchemeSpec{
		{Kind: core.CRM, CkptEvery: ckptEvery},
		{Kind: core.CRD, CkptEvery: ckptEvery},
		{Kind: core.CR2L, CkptEvery: ckptEvery},
	}
	reps := make([]*core.RunReport, len(specs))
	err = cfg.runCells(len(specs), func(i int) error {
		rc := cfg.baseConfig(s)
		rc.Scheme = specs[i]
		rc, _, err := s.spread(rc, cfg.Faults, classes...)
		if err != nil {
			return err
		}
		rep, err := core.Run(rc)
		if err != nil {
			return err
		}
		if !rep.Converged {
			return fmt.Errorf("experiments: %s did not converge", specs[i].Name())
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("Two-level checkpointing: crystm02 analog, %d faults (every 4th a system-wide outage)", cfg.Faults),
		"Scheme", "Checkpoints", "Iters/FF", "Time/FF", "Energy/FF")
	for _, rep := range reps {
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
	s, err := cfg.loadSystem("Kuu")
	if err != nil {
		return nil, err
	}
	ff, err := cfg.faultFree(s)
	if err != nil {
		return nil, err
	}
	nFaults := 3
	// The eligible delay list depends only on the FF baseline, so it is
	// fixed before the cells launch.
	var delays []int
	for _, d := range []int{0, 2, 8, 32} {
		if d > ff.Iters/4 {
			break
		}
		delays = append(delays, d)
	}
	reps := make([]*core.RunReport, len(delays))
	err = cfg.runCells(len(delays), func(i int) error {
		rc := cfg.baseConfig(s)
		rc.Scheme = core.SchemeSpec{Kind: core.LI}
		rc.DetectDelay = delays[i]
		rc, _, err := s.spread(rc, nFaults, fault.SDC)
		if err != nil {
			return err
		}
		rep, err := core.Run(rc)
		if err != nil {
			return err
		}
		if !rep.Converged {
			return fmt.Errorf("experiments: delay=%d did not converge", delays[i])
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("SDC detection latency: Kuu analog, %d silent corruptions, LI recovery", nFaults),
		"Detection delay (iters)", "Iters", "Iters/FF", "Time/FF", "Energy/FF")
	for i, d := range delays {
		rep := reps[i]
		t.AddF(d, rep.Iters, float64(rep.Iters)/float64(ff.Iters),
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
	s, err := cfg.loadSystem("nd24k")
	if err != nil {
		return nil, err
	}
	var plist []int
	switch cfg.Scale {
	case matgen.Tiny:
		plist = []int{8, 4}
	default:
		plist = []int{32, 8, 4}
	}
	nFaults := 5
	// One cell per (rank count, variant): even index plain (keeps its power
	// segments for the reconstruction-window fraction), odd DVFS.
	reps := make([]*core.RunReport, 2*len(plist))
	err = cfg.runCells(len(reps), func(i int) error {
		c := cfg
		c.Ranks = plist[i/2]
		c.Faults = nFaults
		spec := core.SchemeSpec{Kind: core.LI, Construct: recovery.ConstructExact, DVFS: i%2 == 1}
		rep, err := c.runScheme(s, spec, i%2 == 0)
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Construction-cost ablation: nd24k analog, LI(LU) vs LI(LU)-DVFS",
		"#p", "Reconstr. frac of run", "E(no DVFS)/FF", "E(DVFS)/FF", "DVFS saving")
	for pi, p := range plist {
		c := cfg
		c.Ranks = p
		c.Faults = nFaults
		ff, err := c.faultFree(s)
		if err != nil {
			return nil, err
		}
		plain, dvfs := reps[2*pi], reps[2*pi+1]
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
