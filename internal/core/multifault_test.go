package core

import (
	"fmt"
	"testing"

	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/platform"
	"resilience/internal/recovery"
	"resilience/internal/vec"
)

// TestMultiRankSameIterationFailures injects k simultaneous hard node
// failures at one iteration boundary, for k = 1, 2, P/2, and runs every
// scheme in the registry through them. The contract is uniform: the
// drain loop recovers the failures back-to-back within the boundary and
// the solve still converges to the true solution — schemes that cannot
// recover forward (CR without a checkpoint, ESR after an outage) restart,
// they do not wedge. ESR additionally must come through with zero
// restarts: every simultaneous failure reconstructs exactly.
func TestMultiRankSameIterationFailures(t *testing.T) {
	const ranks = 6
	a := matgen.Laplacian2D(8) // 64 rows
	b, xTrue := matgen.RHS(a)

	specs := []SchemeSpec{
		{Kind: F0},
		{Kind: FI},
		{Kind: LI},
		{Kind: LI, DVFS: true},
		{Kind: LI, Construct: recovery.ConstructExact},
		{Kind: LSI},
		{Kind: LSI, DVFS: true},
		{Kind: LSI, Construct: recovery.ConstructExact},
		{Kind: CRM, CkptEvery: 5},
		{Kind: CRD, CkptEvery: 5},
		{Kind: CR2L, CkptEvery: 5},
		{Kind: RD},
		{Kind: TMR},
		{Kind: ESR},
		{Kind: LCR, CkptEvery: 5},
	}
	for _, k := range []int{1, 2, ranks / 2} {
		faults := make([]fault.Fault, k)
		for i := range faults {
			faults[i] = fault.Fault{Class: fault.SNF, Rank: i, Iter: 9}
		}
		for _, spec := range specs {
			spec := spec
			t.Run(fmt.Sprintf("%s/k=%d", spec.Name(), k), func(t *testing.T) {
				fs := faults
				rep, err := Run(RunConfig{
					A: a, B: b,
					Ranks:    ranks,
					Plat:     platform.Default(),
					Scheme:   spec,
					Tol:      1e-10,
					MaxIters: 1500,
					Seed:     11,
					InjectorFactory: func() fault.Injector {
						return fault.NewSchedule(fs)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Converged {
					t.Fatalf("%s with %d simultaneous failures did not converge (relres %g after %d iters)",
						spec.Name(), k, rep.RelRes, rep.Iters)
				}
				if got := len(rep.Faults); got != k {
					t.Errorf("injected %d faults, report has %d", k, got)
				}
				if d := vec.Dist2(rep.Solution, xTrue) / vec.Nrm2(xTrue); d > 1e-6 {
					t.Errorf("solution error %g", d)
				}
				if spec.Kind == ESR && rep.Restarts != 0 {
					t.Errorf("ESR restarted %d times; exact reconstruction must not roll back", rep.Restarts)
				}
			})
		}
	}
}
