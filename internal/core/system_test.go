package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
)

// bitEqualReports compares two reports field for field, floats by bit
// pattern. Meter and Obs are per-run attachments and are not compared.
func bitEqualReports(t *testing.T, what string, got, want *RunReport) {
	t.Helper()
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	phases := func(m map[string]float64) map[string]uint64 {
		out := make(map[string]uint64, len(m))
		for k, v := range m {
			out[k] = math.Float64bits(v)
		}
		return out
	}
	fields := func(r *RunReport) map[string]any {
		return map[string]any{
			"Scheme": r.Scheme, "Ranks": r.Ranks, "Iters": r.Iters, "Converged": r.Converged,
			"Restarts": r.Restarts, "Checkpoints": r.Checkpoints, "Redundancy": r.Redundancy,
			"Seed": r.Seed, "Faults": r.Faults,
			"RelRes/Time/Energy/AvgPower": bits(r.RelRes, r.Time, r.Energy, r.AvgPower),
			"EnergyByPhase":               phases(r.EnergyByPhase),
			"History":                     bits(r.History...),
			"Solution":                    bits(r.Solution...),
		}
	}
	g, w := fields(got), fields(want)
	for name := range w {
		if !reflect.DeepEqual(g[name], w[name]) {
			t.Errorf("%s: %s differs", what, name)
		}
	}
}

func TestFaultFreeSharedReportEqualsOwnRun(t *testing.T) {
	cfg, _ := testSystem(t)
	cfg.Seed = 0
	own, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(cfg.A, cfg.B)
	miss, err := sys.FaultFree(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualReports(t, "miss vs own run", miss, own)

	// Nothing but the key fields reaches the baseline: a caller's scheme,
	// seed, recorder and segment retention neither re-run it nor attach to
	// it.
	noisy := cfg
	noisy.Scheme = SchemeSpec{Kind: CRD, CkptEvery: 7}
	noisy.Seed = 99
	noisy.Obs = obs.NewRecorder()
	noisy.KeepSegments = true
	noisy.DetectDelay = 3
	hit, err := sys.FaultFree(context.Background(), noisy)
	if err != nil {
		t.Fatal(err)
	}
	if hit != miss {
		t.Error("second call did not return the memoised report")
	}
	if n := sys.BaselineRuns(); n != 1 {
		t.Errorf("%d baseline runs, want 1", n)
	}
	if noisy.Obs.Events() != nil || hit.Obs != nil || hit.Meter != nil {
		t.Error("caller's recorder or meter attached to the shared baseline")
	}
}

func TestFaultFreeKeyedOnEveryResolvedInput(t *testing.T) {
	base, _ := testSystem(t)
	base.Tol = 0
	base.Plat = nil
	sys := NewSystem(base.A, base.B)
	ff, err := sys.FaultFree(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	// Spelling a default out names the same baseline.
	same := base
	same.Tol = 1e-12
	same.Plat = platform.Default()
	if again, _ := sys.FaultFree(context.Background(), same); again != ff {
		t.Error("explicit defaults did not share the defaulted baseline")
	}
	if n := sys.BaselineRuns(); n != 1 {
		t.Fatalf("%d baseline runs, want 1", n)
	}

	slow := platform.Default()
	slow.FlopRate /= 2
	variants := map[string]func(*RunConfig){
		"ranks":    func(c *RunConfig) { c.Ranks = 2 },
		"tol":      func(c *RunConfig) { c.Tol = 1e-8 },
		"maxiters": func(c *RunConfig) { c.MaxIters = 5000 },
		"platform": func(c *RunConfig) { c.Plat = slow },
	}
	runs := sys.BaselineRuns()
	for name, mutate := range variants {
		c := base
		mutate(&c)
		rep, err := sys.FaultFree(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs++
		if rep == ff || sys.BaselineRuns() != runs {
			t.Errorf("changing %s did not run a new baseline", name)
		}
		c.Seed = 0 // the shared baseline belongs to no caller's seed
		own, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		bitEqualReports(t, name, rep, own)
	}
}

// TestFaultFreeKeysResolvedIterationCap: the iteration cap is keyed after
// resolution, so leaving it zero and spelling out its default (10 x rows)
// name one baseline.
func TestFaultFreeKeysResolvedIterationCap(t *testing.T) {
	cfg, _ := testSystem(t)
	sys := NewSystem(cfg.A, cfg.B)
	cfg.MaxIters = 0
	zero, err := sys.FaultFree(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxIters = 10 * cfg.A.Rows
	spelled, err := sys.FaultFree(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spelled != zero || sys.BaselineRuns() != 1 {
		t.Errorf("MaxIters 0 and %d started %d baselines, want 1", cfg.MaxIters, sys.BaselineRuns())
	}
}

// TestSpread: the Section 5.2 protocol in one place — the evenly placed
// schedule on the shared baseline, Young's MTBF only where the scheme
// names no interval, nothing for a fault-free scheme, and an error for an
// unconverged baseline.
func TestSpread(t *testing.T) {
	cfg, _ := testSystem(t)
	sys := NewSystem(cfg.A, cfg.B)
	ctx := context.Background()
	classes := []fault.Class{fault.SNF, fault.SWO}

	cfg.Scheme = SchemeSpec{Kind: CRM}
	got, ff, err := sys.Spread(ctx, cfg, 4, classes...)
	if err != nil {
		t.Fatal(err)
	}
	if want := ff.Time / 4; got.Scheme.CkptMTBF != want {
		t.Errorf("CkptMTBF %g, want T_ff/4 = %g", got.Scheme.CkptMTBF, want)
	}
	rep, err := Run(got)
	if err != nil {
		t.Fatal(err)
	}
	want := fault.Evenly(4, ff.Iters, cfg.Ranks, cfg.Seed, classes...)
	if len(rep.Faults) != len(want) {
		t.Fatalf("%d faults injected, want %d", len(rep.Faults), len(want))
	}
	for i, f := range rep.Faults {
		if f.Class != want[i].Class || f.Rank != want[i].Rank || f.Iter != want[i].Iter {
			t.Errorf("fault %d: %v, want %v", i, f, want[i])
		}
	}

	for _, spec := range []SchemeSpec{{Kind: CRM, CkptEvery: 7}, {Kind: CRM, CkptMTBF: 0.5}, {Kind: LI}} {
		cfg.Scheme = spec
		got, _, err := sys.Spread(ctx, cfg, 4, fault.SNF)
		if err != nil {
			t.Fatal(err)
		}
		if got.Scheme != spec || got.InjectorFactory == nil {
			t.Errorf("%+v: scheme became %+v, injector %t", spec, got.Scheme, got.InjectorFactory != nil)
		}
	}
	cfg.Scheme = SchemeSpec{}
	if got, _, err := sys.Spread(ctx, cfg, 4, fault.SNF); err != nil || got.InjectorFactory != nil {
		t.Errorf("fault-free scheme: injector %t, err %v", got.InjectorFactory != nil, err)
	}
	if n := sys.BaselineRuns(); n != 1 {
		t.Errorf("%d baseline runs, want 1", n)
	}

	cfg.Scheme = SchemeSpec{Kind: LI}
	cfg.MaxIters = 5
	if _, _, err := sys.Spread(ctx, cfg, 4, fault.SNF); err == nil ||
		!strings.Contains(err.Error(), "fault-free baseline did not converge") {
		t.Errorf("unconverged baseline: err = %v", err)
	}
}

func TestFaultFreeSingleFlight(t *testing.T) {
	cfg, _ := testSystem(t)
	sys := NewSystem(cfg.A, cfg.B)
	const n = 16
	reps := make([]*RunReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Seed = int64(i)
			reps[i], errs[i] = sys.FaultFree(context.Background(), c)
		}(i)
	}
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if reps[i] != reps[0] {
			t.Errorf("caller %d got its own report", i)
		}
	}
	if runs := sys.BaselineRuns(); runs != 1 {
		t.Errorf("%d baseline runs for %d concurrent callers, want 1", runs, n)
	}
}

func TestFaultFreeTableBounded(t *testing.T) {
	cfg, _ := testSystem(t)
	sys := NewSystem(cfg.A, cfg.B)
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*BaselineCap; i++ {
			c := cfg
			c.Tol = 1e-4 * math.Pow(0.8, float64(i))
			rep, err := sys.FaultFree(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged || rep.RelRes > c.Tol {
				t.Fatalf("tol %g: converged=%t relres %g", c.Tol, rep.Converged, rep.RelRes)
			}
			if n := len(sys.baselines.m); n > BaselineCap || n != len(sys.baselines.order) {
				t.Fatalf("table holds %d reports (%d ordered), cap %d", n, len(sys.baselines.order), BaselineCap)
			}
		}
	}
}

func TestFaultFreeFailuresAreNotMemoised(t *testing.T) {
	cfg, _ := testSystem(t)
	sys := NewSystem(cfg.A, cfg.B)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.FaultFree(cancelled, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled baseline: err = %v", err)
	}
	rep, err := sys.FaultFree(context.Background(), cfg)
	if err != nil || !rep.Converged {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if n := sys.BaselineRuns(); n != 2 {
		t.Errorf("%d baseline runs, want 2 (cancelled, then retried)", n)
	}

	// A baseline that hits the iteration cap is handed back to be rejected
	// and is run again for the next caller.
	short := cfg
	short.MaxIters = 3
	for i := 0; i < 2; i++ {
		rep, err := sys.FaultFree(context.Background(), short)
		if err != nil || rep.Converged || rep.Iters != 3 {
			t.Fatalf("capped baseline: converged=%t iters=%d err=%v", rep.Converged, rep.Iters, err)
		}
	}
	if n := sys.BaselineRuns(); n != 4 {
		t.Errorf("%d baseline runs, want 4 (unconverged reports are not kept)", n)
	}
	if n := len(sys.baselines.m); n != 1 {
		t.Errorf("table holds %d entries, want the one converged report", n)
	}

	// An invalid configuration fails before it can touch the table.
	bad := cfg
	bad.Ranks = 0
	if _, err := sys.FaultFree(context.Background(), bad); err == nil {
		t.Error("rank count 0 accepted")
	}
}

// TestFaultFreeWaiterOutlivesCancelledLeader plays a leader whose own
// context ended while another caller was waiting on its run: the waiter
// must not inherit the cancellation.
func TestFaultFreeWaiterOutlivesCancelledLeader(t *testing.T) {
	cfg, _ := testSystem(t)
	sys := NewSystem(cfg.A, cfg.B)
	ff := cfg
	if err := ff.resolve(); err != nil {
		t.Fatal(err)
	}
	key := baselineKey{ranks: ff.Ranks, maxIters: ff.MaxIters, tol: ff.Tol, plat: *ff.Plat}
	leader := &baselineCall{done: make(chan struct{})}
	sys.baselines.put(key, leader, BaselineCap)

	type result struct {
		rep *RunReport
		err error
	}
	out := make(chan result, 1)
	go func() {
		rep, err := sys.FaultFree(context.Background(), cfg)
		out <- result{rep, err}
	}()

	sys.mu.Lock()
	leader.err, leader.abandoned = context.Canceled, true
	sys.baselines.drop(key)
	sys.mu.Unlock()
	close(leader.done)

	r := <-out
	if r.err != nil || !r.rep.Converged {
		t.Fatalf("waiter: %v", r.err)
	}
	if n := sys.BaselineRuns(); n != 1 {
		t.Errorf("%d baseline runs, want 1 (the waiter's own)", n)
	}
}

func TestSystemsContentAddressed(t *testing.T) {
	var tab Systems
	a := matgen.Laplacian2D(6)
	b, _ := matgen.RHS(a)
	s1 := tab.For(a, b)
	if tab.For(a, b) != s1 {
		t.Error("unchanged system did not map to its resident System")
	}

	// Any element changed in place is another system...
	a.Val[3] *= 2
	s2 := tab.For(a, b)
	b[5] += 1
	s3 := tab.For(a, b)
	if s2 == s1 || s3 == s2 || s3 == s1 {
		t.Error("in-place mutation mapped to a resident System")
	}
	// ...and changing it back is the first one again.
	a.Val[3] /= 2
	b[5] -= 1
	if tab.For(a, b) != s1 {
		t.Error("restored content did not map back to its System")
	}

	// Equal content held in other slices must not be served the resident
	// System, whose slices its owner may since have changed.
	a2 := matgen.Laplacian2D(6)
	b2, _ := matgen.RHS(a2)
	if fingerprint(a2, b2) != fingerprint(a, b) {
		t.Fatal("equal systems fingerprint differently")
	}
	s4 := tab.For(a2, b2)
	if s4 == s1 || s4.A != a2 {
		t.Error("a second copy of the system was handed the first copy's System")
	}

	// Shape is part of the content: a vector split differently between
	// Val and b is a different system.
	if fingerprint(nil, b) == fingerprint(nil, b[:len(b)-1]) {
		t.Error("fingerprint ignores length")
	}
}

func TestSystemsTableBounded(t *testing.T) {
	var tab Systems
	for g := 2; g < 2+SystemsCap+1; g++ {
		a := matgen.Laplacian2D(g)
		b, _ := matgen.RHS(a)
		sys := tab.For(a, b)
		if _, err := sys.FaultFree(context.Background(), RunConfig{Ranks: 2, Tol: 1e-8}); err != nil {
			t.Fatal(err)
		}
		if tab.Len() > SystemsCap {
			t.Fatalf("table holds %d systems, cap %d", tab.Len(), SystemsCap)
		}
	}
	if tab.Len() != SystemsCap {
		t.Errorf("table holds %d systems after cap+1 inserts, want %d", tab.Len(), SystemsCap)
	}
}
