package experiments

import (
	"math"
	"runtime"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
)

// TestEngineDeterminism asserts the rendered output of an experiment is
// byte-identical whether the engine runs its cells sequentially or on
// eight workers. fig5 and tab5 cover the widest fan-outs (matrix x scheme
// grids with cached FF baselines); fig3 covers Poisson fault injection,
// proving each cell's RNG is isolated from scheduling order.
func TestEngineDeterminism(t *testing.T) {
	cfg := Default(0) // Tiny
	for _, id := range []string{"fig5", "tab5", "fig3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			render := func(workers int) string {
				c := cfg
				c.Workers = workers
				res, err := r.Run(c)
				if err != nil {
					t.Fatalf("%s with Workers=%d: %v", id, workers, err)
				}
				return res.String()
			}
			seq := render(1)
			par := render(8)
			if seq != par {
				t.Errorf("%s output differs between Workers=1 and Workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					id, seq, par)
			}
		})
	}
}

// TestOverlapSolverDeterminism asserts the overlapped solver path is a
// pure clock-model change at ci scale: bitwise-identical residual
// history, identical iteration count, bitwise-identical solution — and a
// modeled time no worse than the fused path.
func TestOverlapSolverDeterminism(t *testing.T) {
	cfg := Default(matgen.CI)
	s, err := cfg.loadSystem("Andrews")
	if err != nil {
		t.Fatal(err)
	}
	runOne := func(overlap bool) *core.RunReport {
		rc := cfg.baseConfig(s)
		rc.Overlap = overlap
		rep, err := core.Run(rc)
		if err != nil {
			t.Fatalf("overlap=%t: %v", overlap, err)
		}
		if !rep.Converged {
			t.Fatalf("overlap=%t did not converge (relres %g after %d iters)", overlap, rep.RelRes, rep.Iters)
		}
		return rep
	}
	fused := runOne(false)
	over := runOne(true)

	if fused.Iters != over.Iters {
		t.Errorf("iteration counts differ: fused %d, overlapped %d", fused.Iters, over.Iters)
	}
	if math.Float64bits(fused.RelRes) != math.Float64bits(over.RelRes) {
		t.Errorf("final residuals differ: fused %x, overlapped %x",
			math.Float64bits(fused.RelRes), math.Float64bits(over.RelRes))
	}
	if len(fused.History) != len(over.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(fused.History), len(over.History))
	}
	for i := range fused.History {
		if math.Float64bits(fused.History[i]) != math.Float64bits(over.History[i]) {
			t.Fatalf("residual history diverges at iteration %d: %x vs %x",
				i, math.Float64bits(fused.History[i]), math.Float64bits(over.History[i]))
		}
	}
	if len(fused.Solution) != len(over.Solution) {
		t.Fatalf("solution lengths differ: %d vs %d", len(fused.Solution), len(over.Solution))
	}
	for i := range fused.Solution {
		if math.Float64bits(fused.Solution[i]) != math.Float64bits(over.Solution[i]) {
			t.Fatalf("solution diverges at row %d", i)
		}
	}
	if over.Time > fused.Time {
		t.Errorf("overlapped modeled time %g exceeds fused %g", over.Time, fused.Time)
	}
}

// TestOverlapRecoveryDeterminism extends the overlap purity guarantee to
// the fault path: under every default recovery scheme, a chaos scenario
// with faults landing inside reconstruction / checkpoint / rollback
// windows must produce bitwise-identical iterates with the halo exchange
// overlapped or fused. Overlap is a clock-model change; recovery phases
// (which replay SpMVs during reconstruction and rollback) must not leak
// it into the numerics.
func TestOverlapRecoveryDeterminism(t *testing.T) {
	for _, scheme := range chaos.DefaultSchemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			scn := &chaos.Scenario{
				Grid: 8, Ranks: 4, Scheme: scheme, Tol: 1e-10, Seed: 3,
				CkptEvery: 6, DetectDelay: 2,
				// Back-to-back faults: the second lands while the first is
				// still being repaired, and for CR schemes iteration 7 sits
				// just past the checkpoint at 6 — inside the rollback window.
				Faults: []chaos.FaultSpec{
					{Class: fault.SNF, Rank: 1, Iter: 7},
					{Class: fault.SNF, Rank: 2, Iter: 8},
				},
			}
			a, b := scn.System()
			runOne := func(overlap bool) *core.RunReport {
				s := *scn
				s.Overlap = overlap
				rc, err := s.RunConfig(a, b, false)
				if err != nil {
					t.Fatalf("overlap=%t: %v", overlap, err)
				}
				rep, err := core.Run(rc)
				if err != nil {
					t.Fatalf("overlap=%t: %v", overlap, err)
				}
				return rep
			}
			fused := runOne(false)
			over := runOne(true)

			if fused.Iters != over.Iters || fused.Converged != over.Converged {
				t.Fatalf("fused (iters %d, converged %t) and overlapped (iters %d, converged %t) diverge",
					fused.Iters, fused.Converged, over.Iters, over.Converged)
			}
			if math.Float64bits(fused.RelRes) != math.Float64bits(over.RelRes) {
				t.Errorf("final residuals differ: fused %x, overlapped %x",
					math.Float64bits(fused.RelRes), math.Float64bits(over.RelRes))
			}
			if len(fused.History) != len(over.History) {
				t.Fatalf("history lengths differ: %d vs %d", len(fused.History), len(over.History))
			}
			for i := range fused.History {
				if math.Float64bits(fused.History[i]) != math.Float64bits(over.History[i]) {
					t.Fatalf("residual history diverges at iteration %d under faults: %x vs %x",
						i, math.Float64bits(fused.History[i]), math.Float64bits(over.History[i]))
				}
			}
			for i := range fused.Solution {
				if math.Float64bits(fused.Solution[i]) != math.Float64bits(over.Solution[i]) {
					t.Fatalf("solution diverges at row %d under faults", i)
				}
			}
			if len(fused.Faults) == 0 {
				t.Error("scenario injected no faults; the test exercised nothing")
			}
			if over.Time > fused.Time {
				t.Errorf("overlapped modeled time %g exceeds fused %g", over.Time, fused.Time)
			}
		})
	}
}

// TestWorkersResolution: Config.Workers when set, else GOMAXPROCS.
func TestWorkersResolution(t *testing.T) {
	if got := (Config{Workers: 5}).workers(); got != 5 {
		t.Errorf("Workers=5: workers() = %d, want 5", got)
	}
	if got, want := (Config{}).workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers unset: workers() = %d, want GOMAXPROCS = %d", got, want)
	}
}
