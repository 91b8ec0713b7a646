package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/cluster"
	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/sparse"
)

// TestSolveInvariantUnderTokenCount: the number of execution tokens is
// host scheduling only. Every scheme of the table, faulted, on two
// catalog matrices at tiny scale (where the grain rule alone would give
// one token), runs through core.Run at W = 1, 2 and 4 and must report the
// same iterations, time, energy, residual history, solution and event
// log, bit for bit. With -short it runs bcsstk16 alone, which keeps a
// pass short enough for the race detector's repeated run of this package.
func TestSolveInvariantUnderTokenCount(t *testing.T) {
	matrices := []struct {
		name  string
		ranks int
	}{{"bcsstk16", 4}, {"x104", 8}}
	if testing.Short() {
		matrices = matrices[:1]
	}
	for _, m := range matrices {
		spec, err := matgen.Lookup(m.name)
		if err != nil {
			t.Fatal(err)
		}
		a := spec.Generate(matgen.Tiny)
		b, _ := matgen.RHS(a)
		var want map[string]string
		for _, w := range []int{1, 2, 4} {
			restore := cluster.ForceTokens(w)
			got := solveEveryScheme(t, a, b, m.ranks)
			restore()
			if want == nil {
				want = got
				continue
			}
			for name, run := range got {
				if run != want[name] {
					t.Errorf("%s on %d ranks, %s: W=%d differs from W=1:\n%s\nwant\n%s", m.name, m.ranks, name, w, run, want[name])
				}
			}
		}
	}
}

// solveEveryScheme runs each scheme of the table with four faults spread
// over a fresh system's fault-free run, and renders each outcome as the
// exact bits it reports plus its event log.
func solveEveryScheme(t *testing.T, a *sparse.CSR, b []float64, ranks int) map[string]string {
	t.Helper()
	sys := core.NewSystem(a, b)
	out := make(map[string]string)
	for _, name := range core.SchemeNames() {
		spec, _ := core.ParseScheme(name)
		rec := obs.NewRecorder()
		cfg, _, err := sys.Spread(context.Background(), core.RunConfig{
			A: a, B: b, Ranks: ranks, Plat: platform.Default(), Scheme: spec,
			Tol: 1e-8, Seed: 3, Obs: rec,
		}, 4, fault.SNF, fault.SDC)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var log bytes.Buffer
		if err := obs.WriteEventsCSV(&log, rec.Events()); err != nil {
			t.Fatal(err)
		}
		out[name] = fmt.Sprintf("iters %d time %x energy %x history %s solution %s\n%s",
			rep.Iters, math.Float64bits(rep.Time), math.Float64bits(rep.Energy),
			chaos.HashFloats(rep.History), chaos.HashFloats(rep.Solution), log.String())
	}
	return out
}
