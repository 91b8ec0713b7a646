package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"math"
	"testing"

	"resilience/internal/checkpoint"
	"resilience/internal/cluster"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/recovery"
	"resilience/internal/solver"
	"resilience/internal/vec"
)

// testSystem builds a small well-understood SPD system.
func testSystem(t *testing.T) (cfg RunConfig, xTrue []float64) {
	t.Helper()
	a := matgen.Laplacian2D(16) // 256 rows
	b, xt := matgen.RHS(a)
	return RunConfig{
		A:        a,
		B:        b,
		Ranks:    4,
		Plat:     platform.Default(),
		Tol:      1e-10,
		MaxIters: 4000,
		Seed:     1,
	}, xt
}

func checkSolution(t *testing.T, rep *RunReport, xTrue []float64, tol float64) {
	t.Helper()
	if !rep.Converged {
		t.Fatalf("%s did not converge: relres=%g iters=%d", rep.Scheme, rep.RelRes, rep.Iters)
	}
	if d := vec.Dist2(rep.Solution, xTrue) / vec.Nrm2(xTrue); d > tol {
		t.Fatalf("%s solution error %g > %g", rep.Scheme, d, tol)
	}
}

func TestFaultFreeRun(t *testing.T) {
	cfg, xTrue := testSystem(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, rep, xTrue, 1e-6)
	if rep.Time <= 0 {
		t.Errorf("non-positive time %g", rep.Time)
	}
	if rep.Energy <= 0 {
		t.Errorf("non-positive energy %g", rep.Energy)
	}
	if rep.AvgPower <= 0 {
		t.Errorf("non-positive power %g", rep.AvgPower)
	}
	if len(rep.Faults) != 0 {
		t.Errorf("fault-free run reported %d faults", len(rep.Faults))
	}
}

// TestAllSchemesRecover injects faults under every scheme and checks the
// solver still reaches the correct solution.
func TestAllSchemesRecover(t *testing.T) {
	specs := []SchemeSpec{
		{Kind: F0},
		{Kind: FI},
		{Kind: LI, Construct: recovery.ConstructCG},
		{Kind: LI, Construct: recovery.ConstructExact},
		{Kind: LI, Construct: recovery.ConstructCG, DVFS: true},
		{Kind: LSI, Construct: recovery.ConstructCG},
		{Kind: LSI, Construct: recovery.ConstructExact},
		{Kind: LSI, Construct: recovery.ConstructCG, DVFS: true},
		{Kind: CRM, CkptEvery: 25},
		{Kind: CRD, CkptEvery: 25},
		{Kind: RD},
		{Kind: TMR},
	}
	cfg, xTrue := testSystem(t)
	ffIters := faultFreeIters(t, cfg)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			c := cfg
			c.Scheme = spec
			c.InjectorFactory = func() fault.Injector {
				return fault.NewSchedule(fault.Evenly(3, ffIters, c.Ranks, 42, fault.SNF))
			}
			rep, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			checkSolution(t, rep, xTrue, 1e-5)
			if len(rep.Faults) != 3 {
				t.Errorf("want 3 faults, got %d", len(rep.Faults))
			}
		})
	}
}

func faultFreeIters(t *testing.T, cfg RunConfig) int {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Iters
}

func TestRDMatchesFaultFree(t *testing.T) {
	cfg, _ := testSystem(t)
	ff, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scheme = SchemeSpec{Kind: RD}
	c.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(3, ff.Iters, c.Ranks, 42, fault.SNF))
	}
	rd, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Iters != ff.Iters {
		t.Errorf("RD iters %d != FF iters %d", rd.Iters, ff.Iters)
	}
	if rd.Redundancy != 2 {
		t.Errorf("RD redundancy %d != 2", rd.Redundancy)
	}
	// Eq. 12: RD draws double power for the whole run.
	ratio := rd.AvgPower / ff.AvgPower
	if ratio < 1.9 || ratio > 2.2 {
		t.Errorf("RD power ratio %g, want ~2", ratio)
	}
}

func TestForwardRecoveryBeatsF0(t *testing.T) {
	cfg, _ := testSystem(t)
	ffIters := faultFreeIters(t, cfg)
	iters := func(spec SchemeSpec) int {
		c := cfg
		c.Scheme = spec
		c.InjectorFactory = func() fault.Injector {
			return fault.NewSchedule(fault.Evenly(5, ffIters, c.Ranks, 7, fault.SNF))
		}
		rep, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged {
			t.Fatalf("%s did not converge", spec.Name())
		}
		return rep.Iters
	}
	f0 := iters(SchemeSpec{Kind: F0})
	li := iters(SchemeSpec{Kind: LI})
	lsi := iters(SchemeSpec{Kind: LSI})
	if li >= f0 {
		t.Errorf("LI iterations %d not better than F0 %d", li, f0)
	}
	if lsi >= f0 {
		t.Errorf("LSI iterations %d not better than F0 %d", lsi, f0)
	}
	if f0 <= ffIters {
		t.Errorf("F0 iterations %d should exceed fault-free %d", f0, ffIters)
	}
}

func TestCheckpointCountAndRollback(t *testing.T) {
	cfg, xTrue := testSystem(t)
	ffIters := faultFreeIters(t, cfg)
	c := cfg
	c.Scheme = SchemeSpec{Kind: CRM, CkptEvery: 20}
	c.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(2, ffIters, c.Ranks, 3, fault.SNF))
	}
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, rep, xTrue, 1e-5)
	if rep.Checkpoints == 0 {
		t.Error("no checkpoints recorded")
	}
	if rep.Iters <= ffIters {
		t.Errorf("CR iterations %d should exceed fault-free %d (rollback recomputation)", rep.Iters, ffIters)
	}
}

func TestDVFSReducesEnergy(t *testing.T) {
	// DVFS pays off when reconstruction is long relative to the frequency
	// transition latency, so use a larger diagonal block and the exact
	// (LU) construction, whose n³ cost dominates.
	cfg, _ := testSystem(t)
	a := matgen.Laplacian2D(32)
	cfg.A = a
	cfg.B, _ = matgen.RHS(a)
	ffIters := faultFreeIters(t, cfg)
	run := func(dvfs bool) *RunReport {
		c := cfg
		c.Scheme = SchemeSpec{Kind: LI, Construct: recovery.ConstructExact, DVFS: dvfs}
		c.InjectorFactory = func() fault.Injector {
			return fault.NewSchedule(fault.Evenly(5, ffIters, c.Ranks, 11, fault.SNF))
		}
		rep, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(false)
	dvfs := run(true)
	if dvfs.Iters != plain.Iters {
		t.Errorf("DVFS changed iterations: %d vs %d", dvfs.Iters, plain.Iters)
	}
	if dvfs.Energy >= plain.Energy {
		t.Errorf("LI-DVFS energy %g not below LI energy %g", dvfs.Energy, plain.Energy)
	}
}

func TestPoissonInjectorRun(t *testing.T) {
	cfg, xTrue := testSystem(t)
	ff, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MTBF ~ a fifth of the fault-free runtime: expect a handful of faults.
	mtbf := ff.Time / 5
	c := cfg
	c.Scheme = SchemeSpec{Kind: LI}
	c.InjectorFactory = func() fault.Injector {
		return fault.NewPoisson(mtbf, c.Ranks, fault.SNF, 9)
	}
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, rep, xTrue, 1e-5)
	if len(rep.Faults) == 0 {
		t.Error("expected Poisson faults, got none")
	}
}

// TestSimultaneousFaults schedules several faults at the same iteration:
// multiple processes fail together and the monitor must drain and recover
// them all at one boundary.
func TestSimultaneousFaults(t *testing.T) {
	cfg, xTrue := testSystem(t)
	c := cfg
	c.Scheme = SchemeSpec{Kind: LI}
	c.InjectorFactory = func() fault.Injector {
		// ffIters=1 forces all scheduled iterations to collapse to 1.
		return fault.NewSchedule(fault.Evenly(3, 1, c.Ranks, 5, fault.SNF))
	}
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, rep, xTrue, 1e-5)
	if len(rep.Faults) != 3 {
		t.Fatalf("want 3 simultaneous faults, got %d", len(rep.Faults))
	}
	if rep.Faults[0].Iter != rep.Faults[2].Iter {
		t.Errorf("faults not simultaneous: %v", rep.Faults)
	}
}

func TestRunReportEnergyConsistency(t *testing.T) {
	cfg, _ := testSystem(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range rep.EnergyByPhase {
		sum += e
	}
	if math.Abs(sum-rep.Energy) > 1e-6*rep.Energy {
		t.Errorf("phase energies sum %g != total %g", sum, rep.Energy)
	}
}

// TestSDCDetectionDelay lets silent corruptions propagate before recovery
// and checks the run still converges to the right answer, at growing cost.
func TestSDCDetectionDelay(t *testing.T) {
	cfg, xTrue := testSystem(t)
	ffIters := faultFreeIters(t, cfg)
	iters := func(delay int) int {
		c := cfg
		c.Scheme = SchemeSpec{Kind: LI}
		c.DetectDelay = delay
		c.InjectorFactory = func() fault.Injector {
			return fault.NewSchedule(fault.Evenly(2, ffIters, c.Ranks, 13, fault.SDC))
		}
		rep, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, rep, xTrue, 1e-5)
		return rep.Iters
	}
	prompt := iters(0)
	delayed := iters(20)
	if delayed < prompt {
		t.Errorf("delayed detection (%d iters) cheaper than prompt (%d)", delayed, prompt)
	}
}

// TestCR2LScheme runs the two-level scheme end to end through core.
func TestCR2LScheme(t *testing.T) {
	cfg, xTrue := testSystem(t)
	ffIters := faultFreeIters(t, cfg)
	c := cfg
	c.Scheme = SchemeSpec{Kind: CR2L, CkptEvery: 10}
	c.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(4, ffIters, c.Ranks, 17, fault.SNF, fault.SWO))
	}
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, rep, xTrue, 1e-5)
	if rep.Checkpoints == 0 {
		t.Error("no checkpoints recorded for CR-2L")
	}
	if rep.Scheme != "CR-2L" {
		t.Errorf("scheme name %q", rep.Scheme)
	}
}

func TestRunRejectsInvalidConfigs(t *testing.T) {
	a := matgen.Laplacian2D(8)
	b, _ := matgen.RHS(a)
	cases := []RunConfig{
		{A: nil, B: b, Ranks: 2},
		{A: a, B: b[:10], Ranks: 2},
		{A: a, B: b, Ranks: 0},
		{A: a, B: b, Ranks: a.Rows + 1},
		{A: a, B: b, Ranks: 2, Scheme: SchemeSpec{Kind: CRM}}, // CR without interval or MTBF
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunRejectsFaultsWithoutScheme(t *testing.T) {
	cfg, _ := testSystem(t)
	cfg.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(1, 10, cfg.Ranks, 1, fault.SNF))
	}
	if _, err := Run(cfg); err == nil {
		t.Error("FF with injector must be a configuration error")
	}
}

// TestRunRejectsFaultOnMissingRank: a fault that fires naming a rank the
// run does not have is an error, not a fault that strikes nobody.
func TestRunRejectsFaultOnMissingRank(t *testing.T) {
	cfg, _ := testSystem(t)
	cfg.Scheme = SchemeSpec{Kind: F0}
	cfg.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule([]fault.Fault{{Class: fault.SNF, Rank: cfg.Ranks, Iter: 5}})
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "strikes no rank") {
		t.Errorf("fault on rank %d of %d: err = %v", cfg.Ranks, cfg.Ranks, err)
	}
}

func TestYoungPolicyResolution(t *testing.T) {
	cfg, xTrue := testSystem(t)
	ff, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scheme = SchemeSpec{Kind: CRD, CkptMTBF: ff.Time / 3}
	c.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(3, ff.Iters, c.Ranks, 2, fault.SNF))
	}
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, rep, xTrue, 1e-5)
	if rep.Checkpoints == 0 {
		t.Error("Young policy produced no checkpoints")
	}
}

func TestDalyPolicyResolution(t *testing.T) {
	cfg, xTrue := testSystem(t)
	ff, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scheme = SchemeSpec{Kind: CRD, CkptMTBF: ff.Time / 3, UseDaly: true}
	c.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(3, ff.Iters, c.Ranks, 2, fault.SNF))
	}
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, rep, xTrue, 1e-5)
}

func TestSchemeSpecNames(t *testing.T) {
	cases := map[string]SchemeSpec{
		"FF":      {Kind: FF},
		"LI":      {Kind: LI},
		"LI-DVFS": {Kind: LI, DVFS: true},
		"LI(LU)":  {Kind: LI, Construct: recovery.ConstructExact},
		"LSI(QR)": {Kind: LSI, Construct: recovery.ConstructExact},
		"CR-2L":   {Kind: CR2L},
		"TMR":     {Kind: TMR},
		// Off the table (no name selects it), built by the construction ablation.
		"LI(LU)-DVFS": {Kind: LI, Construct: recovery.ConstructExact, DVFS: true},
	}
	for want, spec := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("Name()=%q want %q", got, want)
		}
	}
}

func TestEstimateIterTimePositive(t *testing.T) {
	a := matgen.Laplacian2D(16)
	est := estimateIterTime(a, 4, platform.Default())
	if est <= 0 {
		t.Errorf("estimate %g", est)
	}
	// More ranks per fixed problem: less compute per rank but more
	// collective latency; the estimate stays positive and finite.
	est2 := estimateIterTime(a, 16, platform.Default())
	if est2 <= 0 || math.IsInf(est2, 0) {
		t.Errorf("estimate %g", est2)
	}
}

// eventsOf returns the events of one kind in a run's event log.
func eventsOf(rec *obs.Recorder, kind obs.EventKind) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceRecordsRun(t *testing.T) {
	cfg, _ := testSystem(t)
	rec := obs.NewRecorder()
	cfg.Obs = rec
	cfg.Scheme = SchemeSpec{Kind: LI}
	cfg.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(fault.Evenly(2, 40, cfg.Ranks, 3, fault.SNF))
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("did not converge")
	}
	if got := len(eventsOf(rec, obs.FaultEvent)); got != 2 {
		t.Errorf("%d fault events, want 2", got)
	}
	if got := len(eventsOf(rec, obs.RecoveryEvent)); got != 2 {
		t.Errorf("%d recovery events, want 2", got)
	}
	iters := eventsOf(rec, obs.Iteration)
	if len(iters) < rep.Iters/2 {
		t.Error("too few iteration events")
	}
	conv := eventsOf(rec, obs.ConvergedEvent)
	if len(conv) != 1 || conv[0].Iter != rep.Iters || !conv[0].Converged {
		t.Errorf("converged event %v", conv)
	}
	// Residual series decreases overall.
	if first, last := iters[0].RelRes, iters[len(iters)-1].RelRes; last > first {
		t.Errorf("residual series did not decrease: %g -> %g", first, last)
	}
}

// TestLateDetectedSDCLogsRecovery: a silent corruption detected
// DetectDelay iterations late is recovered then, and its recovery is
// logged then — one recovery event per fault, at the fault's iteration
// plus the delay.
func TestLateDetectedSDCLogsRecovery(t *testing.T) {
	cfg, _ := testSystem(t)
	rec := obs.NewRecorder()
	cfg.Obs = rec
	cfg.Scheme = SchemeSpec{Kind: LI}
	cfg.DetectDelay = 3
	cfg.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule([]fault.Fault{{Class: fault.SDC, Rank: 2, Iter: 10}})
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	faults, recs := eventsOf(rec, obs.FaultEvent), eventsOf(rec, obs.RecoveryEvent)
	if len(faults) != 1 || len(recs) != len(faults) {
		t.Fatalf("%d fault events, %d recovery events; want one of each", len(faults), len(recs))
	}
	if recs[0].Iter != faults[0].Iter+3 || recs[0].Rank != 2 {
		t.Errorf("recovery logged at iteration %d on rank %d, want iteration %d on rank 2",
			recs[0].Iter, recs[0].Rank, faults[0].Iter+3)
	}
}

// TestForwardRecoveryFreeWhenFaultFree pins the motivation the paper
// gives for forward recovery (Section 7): unlike CR, FW costs nothing
// when no fault occurs.
func TestForwardRecoveryFreeWhenFaultFree(t *testing.T) {
	cfg, _ := testSystem(t)
	ff, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// LI configured but never triggered: identical cost to FF.
	li := cfg
	li.Scheme = SchemeSpec{Kind: LI}
	liRep, err := Run(li)
	if err != nil {
		t.Fatal(err)
	}
	if liRep.Iters != ff.Iters {
		t.Errorf("idle LI changed iterations: %d vs %d", liRep.Iters, ff.Iters)
	}
	if d := math.Abs(liRep.Time-ff.Time) / ff.Time; d > 1e-9 {
		t.Errorf("idle LI changed time by %g", d)
	}
	// CR keeps checkpointing even without faults: strictly more time.
	cr := cfg
	cr.Scheme = SchemeSpec{Kind: CRD, CkptEvery: 20}
	crRep, err := Run(cr)
	if err != nil {
		t.Fatal(err)
	}
	if crRep.Time <= ff.Time {
		t.Errorf("fault-free CR-D time %g not above FF %g (checkpoint overhead)", crRep.Time, ff.Time)
	}
	if crRep.Checkpoints == 0 {
		t.Error("no checkpoints in fault-free CR run")
	}
}

// TestRunContext pins the context plumbing: a live context changes
// nothing (bitwise-identical to Run), a pre-canceled one fails before
// the cluster spins up, and an expiring deadline stops the solve at an
// iteration boundary with a wrapped context error.
func TestRunContext(t *testing.T) {
	cfg, xTrue := testSystem(t)

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, withCtx, xTrue, 1e-8)
	if withCtx.Iters != plain.Iters || withCtx.RelRes != plain.RelRes ||
		withCtx.Time != plain.Time || withCtx.Energy != plain.Energy {
		t.Fatalf("background context perturbed the run: %+v vs %+v", withCtx, plain)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(canceled, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}

	expiring, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	time.Sleep(5 * time.Millisecond)
	_, err = RunContext(expiring, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired run returned %v, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "canceled at iteration") && !strings.Contains(err.Error(), "canceled before start") {
		t.Fatalf("cancellation error lost its location: %v", err)
	}
}

// TestMonitorBoundaryAllocatesNothing: every rank calls the monitor twice
// per iteration, and on an iteration with no fault due and no checkpoint
// due neither call may allocate — the recovery context the scheme is
// handed is the monitor's own, refilled, not a fresh heap object.
func TestMonitorBoundaryAllocatesNothing(t *testing.T) {
	cfg, _ := testSystem(t)
	mon := &resMonitor{
		cfg:      &cfg,
		scheme:   &recovery.CR{Levels: []recovery.Level{{Store: checkpoint.MemStore{Plat: cfg.Plat}, Policy: checkpoint.FixedPolicy(1000)}}},
		injector: fault.NewSchedule([]fault.Fault{{Class: fault.SNF, Rank: 0, Iter: 500}}),
	}
	var before, after float64
	_, err := cluster.Run(1, cfg.Plat, power.NewMeter(false), func(c *cluster.Comm) error {
		it := &solver.Iter{C: c, State: &solver.State{}, K: 7}
		before = testing.AllocsPerRun(100, func() {
			if restart, err := mon.BeforeIteration(it); restart || err != nil {
				t.Errorf("BeforeIteration = %t, %v on a fault-free boundary", restart, err)
			}
		})
		after = testing.AllocsPerRun(100, func() {
			if err := mon.AfterIteration(it); err != nil {
				t.Errorf("AfterIteration: %v", err)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 || after != 0 {
		t.Fatalf("monitor allocates on a fault-free boundary: BeforeIteration %.0f, AfterIteration %.0f allocs/op", before, after)
	}
}

// pinnedFaults strikes every recovery path a scheme has: a node failure
// before the first checkpoint (interval 10), so rollback schemes take the
// no-checkpoint fallback to zeros; a silent corruption detected
// pinnedDetectDelay iterations late; and a system-wide outage, which voids
// every memory-held copy (CR-2L then restores from its disk level, written
// at iteration 40).
var pinnedFaults = []fault.Fault{
	{Class: fault.SNF, Rank: 1, Iter: 5},
	{Class: fault.SDC, Rank: 2, Iter: 23},
	{Class: fault.SWO, Rank: 3, Iter: 47},
}

const pinnedDetectDelay = 3

// TestSchemeReportsPinned runs every scheme of the table through one
// fault mix with a recorder attached and pins the report to the bit: the
// iterate, the virtual clock, the energy and its per-phase split, the
// checkpoint count and how many spans of each kind the ranks recorded.
// A refactor of the recovery layer must leave every row where it is.
//
// The LSI-DVFS row with its own two node failures pins LocalOp's lazily
// built global-column row block, which LSI reconstruction is the one
// reader of: every rank contributes its block's transpose product and,
// once struck, solves on its block.
func TestSchemeReportsPinned(t *testing.T) {
	lsiFaults := []fault.Fault{
		{Class: fault.SNF, Rank: 1, Iter: 9},
		{Class: fault.LNF, Rank: 3, Iter: 21},
	}
	cases := []struct {
		scheme string
		faults []fault.Fault // nil = pinnedFaults with pinnedDetectDelay
		want   string
	}{
		{"LSI-DVFS", lsiFaults, "iters=73 restarts=2 relres=3dd21596a8e44888 time=3f4f9c55f626998e energy=3fa1d4ebea9fc289 solution=638013c6a8b1c5d6"},
		{"F0", nil, "iters=104 restarts=3 relres=3dd0e7a2b02f69b9 time=3f51242270ae9908 energy=3fa56d2b0cda3f0a solution=b960be0382e8a1c5 faults=3 checkpoints=0 reconstruct=3eb01b2b29a4692b solve=3fa56d0ad683ebc2 compute:2147 send:660 recv:112 wait:220 collective:856 halo:436 reconstruct:3 checkpoint:0 rollback:0"},
		{"FI", nil, "iters=104 restarts=3 relres=3dd0e7a2b02f69b9 time=3f51242270ae9908 energy=3fa56d2b0cda3f0a solution=b960be0382e8a1c5 faults=3 checkpoints=0 reconstruct=3eb01b2b29a4692b solve=3fa56d0ad683ebc2 compute:2147 send:660 recv:112 wait:220 collective:856 halo:436 reconstruct:3 checkpoint:0 rollback:0"},
		{"LI", nil, "iters=89 restarts=3 relres=3dd35479f80aa69b time=3f4fe0e85a13695e energy=3fa3b3ea1e8a8e2c solution=08171ec5b5ccf8ba faults=3 checkpoints=0 reconstruct=3f6411a620e0a829 solve=3fa272cfbc7c83b5 compute:1850 send:588 recv:98 wait:198 collective:748 halo:388 reconstruct:12 checkpoint:0 rollback:0"},
		{"LI-DVFS", nil, "iters=89 restarts=3 relres=3dd35479f80aa69b time=3f53f8b8ec78c235 energy=3fa6363dbc624e2d solution=08171ec5b5ccf8ba faults=3 checkpoints=0 reconstruct=3f77f692d013b54a solve=3fa3376b625fd799 compute:1850 send:588 recv:99 wait:196 collective:748 halo:388 reconstruct:12 checkpoint:0 rollback:0"},
		{"LI(LU)", nil, "iters=89 restarts=3 relres=3dd34fb86cd7216f time=3f538dd051806a07 energy=3fa7570ed66ece36 solution=1aeec6811d82e289 faults=3 checkpoints=0 reconstruct=3f8390fc67c92ac0 solve=3fa272cfbc7c83aa compute:1850 send:588 recv:98 wait:198 collective:748 halo:388 reconstruct:12 checkpoint:0 rollback:0"},
		{"LSI", nil, "iters=86 restarts=3 relres=3dd6e1ede4be304a time=3f515c7738ec66c3 energy=3fa5095ad717fd6d solution=505e526a206902ac faults=3 checkpoints=0 reconstruct=3f797794b1df52e4 solve=3fa1da6840dc132e compute:1802 send:552 recv:92 wait:200 collective:736 halo:364 reconstruct:12 checkpoint:0 rollback:0"},
		{"LSI-DVFS", nil, "iters=86 restarts=3 relres=3dd6e1ede4be304a time=3f53d19c7ef70cfd energy=3fa5e32daf6ba6f2 solution=505e526a206902ac faults=3 checkpoints=0 reconstruct=3f7a214e4561ff98 solve=3fa29f03e6bf6714 compute:1802 send:552 recv:93 wait:201 collective:736 halo:364 reconstruct:12 checkpoint:0 rollback:0"},
		{"LSI(QR)", nil, "iters=86 restarts=3 relres=3dd6eaadf4cbc0a5 time=3f5d44ec71976c9c energy=3fb0826ecc0ed73d solution=98282a82f4a7d86f faults=3 checkpoints=0 reconstruct=3f9e54eaae833763 solve=3fa1da6840dc130a compute:1799 send:552 recv:92 wait:200 collective:736 halo:364 reconstruct:12 checkpoint:0 rollback:0"},
		{"CR-M", nil, "iters=104 restarts=3 relres=3dd37fb95ab2f658 time=3f51728562e8c907 energy=3fa5cf26bba2fb0b solution=830b843b54f18a5c faults=3 checkpoints=10 checkpoint=3f46585c0c9b43ea rollback=3f11e049a3af6988 solve=3fa56cd5269eb648 compute:2144 send:660 recv:110 wait:219 collective:856 halo:436 reconstruct:0 checkpoint:40 rollback:4"},
		{"CR-D", nil, "iters=93 restarts=3 relres=3dd8a0052012bba5 time=3f7ad67ba75f37b9 energy=3fca13634df1ea36 solution=9f7d08e9a1da26bb faults=3 checkpoints=9 checkpoint=3fc166162bddcbc6 rollback=3f9eee604dfc14ed solve=3fa33e0461526e9f compute:1924 send:594 recv:99 wait:197 collective:768 halo:392 reconstruct:0 checkpoint:36 rollback:8"},
		{"CR-2L", nil, "iters=93 restarts=3 relres=3dd8a0052012bba5 time=3f6459294135e30a energy=3fb55c26e12f1e1a solution=9f7d08e9a1da26bb faults=3 checkpoints=11 checkpoint=3f9f6b825175e0d0 rollback=3f8f1220e14373c0 solve=3fa33e0461526ef4 compute:1924 send:594 recv:99 wait:197 collective:768 halo:392 reconstruct:0 checkpoint:36 rollback:8"},
		{"LCR", nil, "iters=96 restarts=3 relres=3dd4ee047cfcfac1 time=3f7a8daeee844654 energy=3fc9d9f9ed279c68 solution=85873e3d4cb96586 faults=3 checkpoints=9 checkpoint=3fc117df08a85ef2 rollback=3f9e63ff6a142c18 solve=3fa3d66bdcf2df1c compute:1992 send:612 recv:102 wait:203 collective:792 halo:404 reconstruct:0 checkpoint:36 rollback:16"},
		{"RD", nil, "iters=175 restarts=2 relres=3dd4e84d93d8cfa6 time=3f5c44d6b50828c4 energy=3fc1aa0c4c1f582e solution=5137248a4d871192 faults=3 checkpoints=0 reconstruct=3f0639e88305894f solve=3fb1a7450f0ef77d compute:3536 send:1080 recv:183 wait:361 collective:1412 halo:716 reconstruct:3 checkpoint:0 rollback:0"},
		{"TMR", nil, "iters=175 restarts=2 relres=3dd4e84d93d8cfa6 time=3f5c44d6b50828c4 energy=3fca7f12722f0445 solution=5137248a4d871192 faults=3 checkpoints=0 reconstruct=3f0639e88305894f solve=3fb1a7450f0ef77d compute:3536 send:1080 recv:183 wait:361 collective:1412 halo:716 reconstruct:3 checkpoint:0 rollback:0"},
		{"ESR", nil, "iters=104 restarts=2 relres=3dd0e9edb4d05f65 time=3f545f449f7168dc energy=3fa976810c972934 solution=b8cf458910824cc0 faults=3 checkpoints=0 checkpoint=3f8044e90a927781 reconstruct=3f24a7a0212bf763 solve=3fa5509f29d15f7e compute:2137 send:660 recv:114 wait:218 collective:852 halo:436 reconstruct:6 checkpoint:416 rollback:0"},
	}
	for _, tc := range cases {
		spec, ok := ParseScheme(tc.scheme)
		if !ok {
			t.Fatalf("unknown scheme %q", tc.scheme)
		}
		cfg, _ := testSystem(t)
		cfg.Scheme = spec
		if spec.Checkpoints() {
			cfg.Scheme.CkptEvery = 10
		}
		faults := tc.faults
		if faults == nil {
			faults = pinnedFaults
			cfg.DetectDelay = pinnedDetectDelay
		}
		cfg.InjectorFactory = func() fault.Injector { return fault.NewSchedule(faults) }
		if tc.faults == nil {
			cfg.Obs = obs.NewRecorder()
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, x := range rep.Solution {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
		got := fmt.Sprintf("iters=%d restarts=%d relres=%016x time=%016x energy=%016x solution=%016x",
			rep.Iters, rep.Restarts, math.Float64bits(rep.RelRes), math.Float64bits(rep.Time),
			math.Float64bits(rep.Energy), h.Sum64())
		if cfg.Obs != nil {
			got += fmt.Sprintf(" faults=%d checkpoints=%d", len(rep.Faults), rep.Checkpoints)
			phases := make([]string, 0, len(rep.EnergyByPhase))
			for p := range rep.EnergyByPhase {
				phases = append(phases, p)
			}
			sort.Strings(phases)
			for _, p := range phases {
				got += fmt.Sprintf(" %s=%016x", p, math.Float64bits(rep.EnergyByPhase[p]))
			}
			var spans [obs.SpanRollback + 1]int
			for r := 0; r < cfg.Obs.Ranks(); r++ {
				for _, sp := range cfg.Obs.RankSpans(r) {
					spans[sp.Kind]++
				}
			}
			for k, n := range spans {
				got += fmt.Sprintf(" %s:%d", obs.SpanKind(k), n)
			}
		}
		if got != tc.want {
			t.Errorf("%s report moved:\n got %s\nwant %s", tc.scheme, got, tc.want)
		}
	}
}
