package resilience

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/obs"
)

func TestSolveFaultFree(t *testing.T) {
	a := Laplacian2D(16)
	b, xTrue := RHS(a)
	rep, err := Solve(a, b, SolveOptions{Ranks: 4, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("did not converge")
	}
	var maxErr float64
	for i := range xTrue {
		if d := math.Abs(rep.Solution[i] - xTrue[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-6 {
		t.Errorf("solution error %g", maxErr)
	}
}

func TestSolveAllPublicSchemes(t *testing.T) {
	a := Laplacian2D(12)
	b, _ := RHS(a)
	for _, scheme := range SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			opts := SolveOptions{Scheme: scheme, Ranks: 4, Tol: 1e-9}
			if scheme != "FF" {
				opts.Faults = 2
			}
			rep, err := Solve(a, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged {
				t.Errorf("%s did not converge (relres %g)", scheme, rep.RelRes)
			}
			if scheme != "FF" && len(rep.Faults) != 2 {
				t.Errorf("%s saw %d faults", scheme, len(rep.Faults))
			}
		})
	}
}

func TestSolveRejectsConflictingFaultModes(t *testing.T) {
	a := Laplacian2D(8)
	b, _ := RHS(a)
	if _, err := Solve(a, b, SolveOptions{Scheme: "LI", Faults: 1, MTBF: 1}); err == nil {
		t.Error("Faults+MTBF accepted")
	}
}

func TestSolvePoissonMode(t *testing.T) {
	a := Laplacian2D(16)
	b, _ := RHS(a)
	ff, err := Solve(a, b, SolveOptions{Ranks: 4, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Solve(a, b, SolveOptions{
		Scheme: "LI", Ranks: 4, Tol: 1e-9, MTBF: ff.Time / 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Error("Poisson-mode solve did not converge")
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range SchemeNames() {
		if _, err := ParseScheme(name); err != nil {
			t.Errorf("ParseScheme(%s): %v", name, err)
		}
	}
	_, err := ParseScheme("nope")
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if want := `resilience: unknown scheme "nope" (known: FF, F0, FI, LI, LI-DVFS, LI(LU), LSI, LSI-DVFS, LSI(QR), CR-M, CR-D, CR-2L, LCR, RD, TMR, ESR)`; err.Error() != want {
		t.Errorf("unknown-scheme error changed:\n got %s\nwant %s", err, want)
	}
	// Case-insensitive.
	if _, err := ParseScheme("li-dvfs"); err != nil {
		t.Error("lowercase rejected")
	}
	// No scheme named is the fault-free baseline.
	for _, blank := range []string{"", "  "} {
		if spec, err := ParseScheme(blank); err != nil || spec != (core.SchemeSpec{Kind: core.FF}) {
			t.Errorf("ParseScheme(%q) = %+v, %v; want FF", blank, spec, err)
		}
	}
}

func TestCatalogAccess(t *testing.T) {
	names := CatalogNames()
	if len(names) != 14 {
		t.Fatalf("%d catalog names", len(names))
	}
	a, err := CatalogMatrix("Kuu", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows == 0 {
		t.Error("empty matrix")
	}
	if _, err := CatalogMatrix("Kuu", "bogus"); err == nil {
		t.Error("bad scale accepted")
	}
	if _, err := CatalogMatrix("bogus", "tiny"); err == nil {
		t.Error("bad name accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 12 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	want := map[string]bool{
		"fig1": true, "fig3": true, "fig4": true, "fig5": true, "fig6": true,
		"fig7": true, "fig8": true, "fig9": true,
		"tab3": true, "tab4": true, "tab5": true, "tab6": true,
	}
	for _, e := range exps {
		delete(want, e.ID)
	}
	if len(want) != 0 {
		t.Errorf("missing experiments: %v", want)
	}
}

func TestRunExperimentTiny(t *testing.T) {
	res, err := RunExperiment("fig1", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Error("no tables")
	}
	if _, err := RunExperiment("bogus", "tiny"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := RunExperiment("fig1", "bogus"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestSolveCR2L(t *testing.T) {
	a := Laplacian2D(16)
	b, _ := RHS(a)
	rep, err := Solve(a, b, SolveOptions{
		Scheme: "CR-2L", Ranks: 4, Tol: 1e-9, Faults: 3, CkptEvery: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Checkpoints == 0 {
		t.Errorf("CR-2L converged=%v checkpoints=%d", rep.Converged, rep.Checkpoints)
	}
}

func TestSolveKeepPowerSegments(t *testing.T) {
	a := Laplacian2D(12)
	b, _ := RHS(a)
	rep, err := Solve(a, b, SolveOptions{
		Scheme: "LI", Ranks: 4, Tol: 1e-9, Faults: 2, KeepPowerSegments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meter == nil || len(rep.Meter.Segments()) == 0 {
		t.Error("power segments not retained")
	}
	if len(rep.Meter.PhaseWindows("reconstruct")) == 0 {
		t.Error("no reconstruction windows recorded")
	}
}

func TestSolveSDCFaultClass(t *testing.T) {
	a := Laplacian2D(16)
	b, xTrue := RHS(a)
	rep, err := Solve(a, b, SolveOptions{
		Scheme: "LSI", Ranks: 4, Tol: 1e-9, Faults: 2, FaultClass: fault.SDC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("SDC run did not converge")
	}
	var maxErr float64
	for i := range xTrue {
		if d := math.Abs(rep.Solution[i] - xTrue[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-5 {
		t.Errorf("solution error %g after SDC recovery", maxErr)
	}
}

// freshSystems gives the test a facade baseline table of its own, as a
// new process would have.
func freshSystems(t *testing.T) {
	t.Helper()
	old := systems
	systems = new(core.Systems)
	t.Cleanup(func() { systems = old })
}

// digest renders every field of a report (floats in shortest round-trip
// form, so distinct values print distinctly) bar the per-run attachments.
// A checkpoint level's store is rendered by name rather than by the
// address of the platform it prices against.
func digest(r *Report) string {
	c := *r
	c.Meter, c.Obs, c.Levels = nil, nil, nil
	s := fmt.Sprintf("%+v", c)
	for _, lv := range r.Levels {
		s += fmt.Sprintf(" %s:%d/%d/%d/%d", lv.Store.Name(), lv.Bytes, lv.Every, lv.Writes, lv.Restores)
	}
	return s
}

// TestSolveBaselineSharedChangesNothing: for every registry spelling —
// CR-M, CR-D and LCR with the Young interval derived from the baseline's
// time — the report of a Solve that found the baseline memoised equals,
// field for field, the report of the Solve that had to compute it.
func TestSolveBaselineSharedChangesNothing(t *testing.T) {
	a := Laplacian2D(12)
	b, _ := RHS(a)
	for _, scheme := range SchemeNames() {
		opts := SolveOptions{Scheme: scheme, Ranks: 4, Tol: 1e-9, Faults: 3, Seed: 5}
		freshSystems(t)
		miss, err := Solve(a, b, opts)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		runs := systems.For(a, b).BaselineRuns()
		hit, err := Solve(a, b, opts)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got := systems.For(a, b).BaselineRuns(); got != runs {
			t.Errorf("%s: second solve ran the baseline again (%d -> %d)", scheme, runs, got)
		}
		if scheme != "FF" && runs != 1 {
			t.Errorf("%s: %d baseline runs on the first solve, want 1", scheme, runs)
		}
		if digest(hit) != digest(miss) {
			t.Errorf("%s: report on a memo hit differs from the report on a miss", scheme)
		}
	}
}

// TestSolveBaselineOncePerBasket is the gate scripts/check.sh names: the
// benchmark's six-scheme basket on one system costs one fault-free solve.
func TestSolveBaselineOncePerBasket(t *testing.T) {
	freshSystems(t)
	a := Laplacian2D(16)
	b, _ := RHS(a)
	for _, scheme := range []string{"LI", "LI-DVFS", "LSI-DVFS", "CR-M", "CR-D", "RD"} {
		rep, err := Solve(a, b, SolveOptions{Scheme: scheme, Ranks: 4, Tol: 1e-10, Faults: 5, Seed: 1})
		if err != nil || !rep.Converged {
			t.Fatalf("%s: converged=%v err=%v", scheme, rep != nil && rep.Converged, err)
		}
	}
	if n := systems.For(a, b).BaselineRuns(); n != 1 {
		t.Errorf("six-scheme basket ran %d fault-free baselines, want 1", n)
	}
}

// TestSolveBaselineIsContentKeyed: changing an entry of A or b in place
// between two calls gives what a process that only ever saw the changed
// system gives — the baseline follows the data, never the pointer.
func TestSolveBaselineIsContentKeyed(t *testing.T) {
	opts := SolveOptions{Scheme: "CR-M", Ranks: 4, Tol: 1e-9, Faults: 3, Seed: 2}
	mutations := map[string]func(a *Matrix, b []float64){
		"a.Val": func(a *Matrix, b []float64) { a.Val[0] *= 3 }, // a diagonal entry: still SPD
		"b":     func(a *Matrix, b []float64) { b[7] = 1e6 },    // large enough to move the iteration count
	}
	for name, mutate := range mutations {
		a := Laplacian2D(12)
		b, _ := RHS(a)
		freshSystems(t)
		before, err := Solve(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		mutate(a, b)
		after, err := Solve(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}

		freshSystems(t)
		fresh, err := Solve(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if digest(after) != digest(fresh) {
			t.Errorf("%s changed in place: result differs from a fresh process's", name)
		}
		if digest(after) == digest(before) {
			t.Errorf("%s changed in place: result did not change at all", name)
		}
	}
}

func TestSolveBaselineSingleFlight(t *testing.T) {
	freshSystems(t)
	a := Laplacian2D(16)
	b, _ := RHS(a)
	schemes := []string{"LI", "LSI-DVFS", "CR-M", "CR-D", "RD", "ESR", "F0", "FI"}
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i := range schemes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Solve(a, b, SolveOptions{Scheme: schemes[i], Ranks: 4, Tol: 1e-9, Faults: 2, Seed: int64(i)})
			if err == nil && !rep.Converged {
				err = fmt.Errorf("%s did not converge", schemes[i])
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := systems.For(a, b).BaselineRuns(); n != 1 {
		t.Errorf("%d concurrent solves ran %d baselines, want 1", len(schemes), n)
	}
}

// TestSolveBaselineKey: spelling a default out shares the baseline; any
// solver setting that reaches the fault-free run gets its own.
func TestSolveBaselineKey(t *testing.T) {
	freshSystems(t)
	a := Laplacian2D(12)
	b, _ := RHS(a)
	base := SolveOptions{Scheme: "LI", Ranks: 4, Faults: 2}
	solve := func(o SolveOptions) {
		t.Helper()
		if _, err := Solve(a, b, o); err != nil {
			t.Fatal(err)
		}
	}
	solve(base)
	spelled := base
	spelled.Tol = 1e-12
	spelled.Platform = DefaultPlatform()
	spelled.Scheme, spelled.Seed, spelled.Faults = "RD", 9, 4
	solve(spelled)
	sys := systems.For(a, b)
	if n := sys.BaselineRuns(); n != 1 {
		t.Fatalf("explicit defaults ran %d baselines, want 1", n)
	}
	slow := DefaultPlatform()
	slow.NetLatency *= 2
	for name, o := range map[string]SolveOptions{
		"ranks":    {Scheme: "LI", Ranks: 3, Faults: 2},
		"tol":      {Scheme: "LI", Ranks: 4, Faults: 2, Tol: 1e-8},
		"maxiters": {Scheme: "LI", Ranks: 4, Faults: 2, MaxIters: 900},
		"platform": {Scheme: "LI", Ranks: 4, Faults: 2, Platform: slow},
	} {
		before := sys.BaselineRuns()
		solve(o)
		if sys.BaselineRuns() != before+1 {
			t.Errorf("changing %s did not run a new baseline", name)
		}
	}
}

func TestSolveBaselineTableBounded(t *testing.T) {
	freshSystems(t)
	for g := 6; g < 6+core.SystemsCap+1; g++ {
		a := Laplacian2D(g)
		b, xTrue := RHS(a)
		rep, err := Solve(a, b, SolveOptions{Scheme: "LI", Ranks: 2, Tol: 1e-10, Faults: 1})
		if err != nil || !rep.Converged {
			t.Fatalf("grid %d: %v", g, err)
		}
		for i := range xTrue {
			if math.Abs(rep.Solution[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("grid %d: wrong solution at %d", g, i)
			}
		}
		if systems.Len() > core.SystemsCap {
			t.Fatalf("table holds %d systems, cap %d", systems.Len(), core.SystemsCap)
		}
	}
}

// TestSolveBaselineUnconvergedIsAnError: a fault-free run that hits the
// iteration cap cannot anchor a fault schedule or a Young interval.
func TestSolveBaselineUnconvergedIsAnError(t *testing.T) {
	freshSystems(t)
	a := Laplacian2D(16)
	b, _ := RHS(a)
	opts := SolveOptions{Scheme: "CR-M", Ranks: 4, Faults: 2, MaxIters: 5}
	for i := 1; i <= 2; i++ {
		_, err := Solve(a, b, opts)
		if err == nil || !strings.Contains(err.Error(), "fault-free baseline did not converge") {
			t.Fatalf("call %d: err = %v", i, err)
		}
		if n := systems.For(a, b).BaselineRuns(); n != int64(i) {
			t.Errorf("call %d: %d baseline runs; the failure must not be memoised", i, n)
		}
	}
	// The caller's own capped FF solve is a result, not an anchor: it
	// still comes back, unconverged.
	rep, err := Solve(a, b, SolveOptions{Scheme: "FF", Ranks: 4, MaxIters: 5})
	if err != nil || rep.Converged {
		t.Errorf("explicit capped FF solve: converged=%v err=%v", rep != nil && rep.Converged, err)
	}
}

// TestSolveBaselineNotServedToExplicitFF: only the internal scaffolding
// baseline is shared. A caller's Scheme "FF" solve runs in full and
// carries the caller's recorder, memoised baseline or not.
func TestSolveBaselineNotServedToExplicitFF(t *testing.T) {
	freshSystems(t)
	a := Laplacian2D(12)
	b, _ := RHS(a)
	if _, err := Solve(a, b, SolveOptions{Scheme: "LI", Ranks: 4, Tol: 1e-9, Faults: 2}); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rep, err := Solve(a, b, SolveOptions{Scheme: "FF", Ranks: 4, Tol: 1e-9, Observer: rec, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := systems.For(a, b).FaultFree(context.Background(), core.RunConfig{Ranks: 4, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if rep == shared || rep.Obs != rec || rep.Seed != 4 || len(rec.Events()) == 0 || len(rec.Metrics()) != 4 {
		t.Errorf("explicit FF solve was served from the shared baseline (%d events, %d rank metrics)",
			len(rec.Events()), len(rec.Metrics()))
	}
	if rep.Iters != shared.Iters || rep.Time != shared.Time {
		t.Errorf("explicit FF (%d iters, %g s) disagrees with the shared baseline (%d, %g)",
			rep.Iters, rep.Time, shared.Iters, shared.Time)
	}
}

// TestSolveEventLogPinned: a facade solve's event log, read off the
// Observer and CSV-encoded, is byte-identical to the committed golden.
func TestSolveEventLogPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/solve_events.golden")
	if err != nil {
		t.Fatal(err)
	}
	a := Laplacian2D(8)
	b, _ := RHS(a)
	rec := NewRecorder()
	if _, err := Solve(a, b, SolveOptions{Scheme: "LI-DVFS", Ranks: 4, Faults: 2, Tol: 1e-10, Seed: 3, Observer: rec}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := obs.WriteEventsCSV(&got, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("event log differs from the golden:\n%s", got.Bytes())
	}
}
