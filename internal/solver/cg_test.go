package solver

import (
	"fmt"
	"math"
	"testing"

	"resilience/internal/cluster"
	"resilience/internal/matgen"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// runCG executes a distributed CG across p ranks and returns rank 0's
// result plus the assembled solution.
func runCG(t *testing.T, a *sparse.CSR, b []float64, p int, opts Options) (*Result, []float64) {
	t.Helper()
	part := sparse.NewPartition(a.Rows, p)
	results := make([]*Result, p)
	meter := power.NewMeter(false)
	_, err := cluster.Run(p, platform.Default(), meter, func(c *cluster.Comm) error {
		res, err := CG(c, a, b, part, opts)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	for r := 0; r < p; r++ {
		copy(part.Slice(x, r), results[r].XLocal)
	}
	return results[0], x
}

func TestDistributedCGMatchesSequential(t *testing.T) {
	a := matgen.Laplacian2D(10)
	b, xTrue := matgen.RHS(a)
	for _, p := range []int{1, 2, 3, 4, 7} {
		res, x := runCG(t, a, b, p, Options{Tol: 1e-11, MaxIters: 10 * a.Rows})
		if !res.Converged {
			t.Fatalf("p=%d did not converge", p)
		}
		if e := relErr(x, xTrue); e > 1e-7 {
			t.Errorf("p=%d solution error %g", p, e)
		}
	}
	// Iteration counts must be process-count invariant up to FP noise
	// (Table 4's observation).
	seq := make([]float64, a.Rows)
	sres := plainCG(a, b, seq, 1e-11, 10*a.Rows)
	res4, _ := runCG(t, a, b, 4, Options{Tol: 1e-11, MaxIters: 10 * a.Rows})
	if d := res4.Iters - sres.Iters; d < -3 || d > 3 {
		t.Errorf("distributed %d vs sequential %d iterations", res4.Iters, sres.Iters)
	}
}

func TestDistributedCGScatteredMatrix(t *testing.T) {
	// Scattered off-diagonals produce long-range halos crossing many
	// ranks.
	a := matgen.BandedSPD(matgen.BandedOpts{N: 240, NNZPerRow: 7, Kappa: 100, Scatter: 0.7, Seed: 9})
	b, _ := matgen.RHS(a)
	res, x := runCG(t, a, b, 6, Options{Tol: 1e-10, MaxIters: 10 * a.Rows})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	vec.Sub(r, b, r)
	if rel := vec.Nrm2(r) / vec.Nrm2(b); rel > 1e-9 {
		t.Errorf("true residual %g", rel)
	}
}

func TestCGHistoryRecorded(t *testing.T) {
	a := matgen.Laplacian2D(8)
	b, _ := matgen.RHS(a)
	res, _ := runCG(t, a, b, 4, Options{Tol: 1e-10, MaxIters: 10 * a.Rows})
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	if res.History[0] > 1.001 {
		t.Errorf("initial relres %g should be ~1 for x0=0", res.History[0])
	}
	last := res.History[len(res.History)-1]
	if last > res.History[0] {
		t.Error("residual did not decrease")
	}
}

func TestCGMaxIters(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 256, NNZPerRow: 5, Kappa: 1e8, Seed: 4})
	b, _ := matgen.RHS(a)
	res, _ := runCG(t, a, b, 4, Options{Tol: 1e-14, MaxIters: 5})
	if res.Iters > 5 {
		t.Errorf("ran %d iterations", res.Iters)
	}
}

// lateKick adds 1e3 to x[0] (rank 0's first entry) before iteration at
// and asks for no restart, so the recurrence keeps reporting the residual
// of an iterate that is no longer there.
type lateKick struct{ at int }

func (m lateKick) BeforeIteration(it *Iter) (bool, error) {
	if it.K == m.at && it.C.Rank() == 0 {
		it.State.X[0] += 1e3
	}
	return false, nil
}

func (lateKick) AfterIteration(*Iter) error { return nil }

// TestCGMaxItersConfirmsConvergence checks that a run which stops at
// MaxIters with its recurrence residual under Tol is Converged only if
// the true residual b - Ax is: here x[0] is kicked before the last
// iteration, the recurrence still converges, and the true relative
// residual is in the hundreds.
func TestCGMaxItersConfirmsConvergence(t *testing.T) {
	a := matgen.Laplacian2D(8)
	b, _ := matgen.RHS(a)
	const tol, maxIters = 1e-10, 29
	res, x := runCG(t, a, b, 2, Options{Tol: tol, MaxIters: maxIters, Monitor: lateKick{at: maxIters - 1}})
	if res.Iters != maxIters {
		t.Fatalf("stopped after %d iterations, want the cap %d", res.Iters, maxIters)
	}
	if h := res.History[len(res.History)-1]; h > 1 {
		t.Fatalf("recurrence residual %g at the last boundary; the case needs a converging recurrence", h)
	}
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	vec.Sub(r, b, r)
	trueRel := vec.Nrm2(r) / vec.Nrm2(b)
	if res.Converged {
		t.Fatalf("Converged with true relative residual %g (tol %g), reported RelRes %g", trueRel, tol, res.RelRes)
	}
	if res.RelRes < 1 {
		t.Errorf("reported RelRes %g, true relative residual %g", res.RelRes, trueRel)
	}
}

// corruptingMonitor flips a block of x once, then requests a restart —
// the minimal fault-injection round trip through the Monitor interface.
type corruptingMonitor struct {
	fireAt int
	fired  bool
	rank   int
}

func (m *corruptingMonitor) BeforeIteration(it *Iter) (bool, error) {
	if m.fired || it.K < m.fireAt {
		return false, nil
	}
	m.fired = true
	if it.C.Rank() == m.rank {
		for i := range it.State.X {
			it.State.X[i] = 1e6
		}
	}
	return true, nil
}

func (m *corruptingMonitor) AfterIteration(*Iter) error { return nil }

func TestMonitorCorruptionAndRestart(t *testing.T) {
	a := matgen.Laplacian2D(8)
	b, xTrue := matgen.RHS(a)
	p := 4
	part := sparse.NewPartition(a.Rows, p)
	results := make([]*Result, p)
	meter := power.NewMeter(false)
	_, err := cluster.Run(p, platform.Default(), meter, func(c *cluster.Comm) error {
		mon := &corruptingMonitor{fireAt: 10, rank: 1}
		res, err := CG(c, a, b, part, Options{Tol: 1e-10, MaxIters: 10 * a.Rows, Monitor: mon})
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if !res.Converged {
		t.Fatal("did not converge after corruption")
	}
	if res.Restarts == 0 {
		t.Error("restart not recorded")
	}
	x := make([]float64, a.Rows)
	for r := 0; r < p; r++ {
		copy(part.Slice(x, r), results[r].XLocal)
	}
	if e := relErr(x, xTrue); e > 1e-6 {
		t.Errorf("solution error %g after corruption+restart", e)
	}
}

func TestLocalOpHaloExchange(t *testing.T) {
	a := matgen.Laplacian2D(6)
	n := a.Rows
	p := 3
	part := sparse.NewPartition(n, p)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 1.5
	}
	want := make([]float64, n)
	a.MulVec(want, x)

	meter := power.NewMeter(false)
	got := make([]float64, n)
	_, err := cluster.Run(p, platform.Default(), meter, func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		lo, hi := part.Range(c.Rank())
		y := make([]float64, hi-lo)
		op.MulVecDist(c, y, x[lo:hi])
		copy(got[lo:hi], y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("distributed SpMV wrong at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestLocalOpOffDiagApply(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 60, NNZPerRow: 7, Kappa: 30, Seed: 3})
	n := a.Rows
	p := 4
	part := sparse.NewPartition(n, p)
	x := make([]float64, n)
	bGlob := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
		bGlob[i] = math.Cos(float64(i))
	}
	meter := power.NewMeter(false)
	_, err := cluster.Run(p, platform.Default(), meter, func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		lo, hi := part.Range(c.Rank())
		buf := op.GatherHalo(c, x[lo:hi])
		y := make([]float64, hi-lo)
		op.OffDiagApply(c, y, bGlob[lo:hi], buf)
		// Reference: y_i = b_i - sum over off-block columns.
		for i := lo; i < hi; i++ {
			want := bGlob[i]
			cols, vals := a.Row(i)
			for k, j := range cols {
				if j < lo || j >= hi {
					want -= vals[k] * x[j]
				}
			}
			if math.Abs(y[i-lo]-want) > 1e-12 {
				return fmt.Errorf("rank %d row %d: %g want %g", c.Rank(), i, y[i-lo], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalOpNeighborsSymmetric(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 120, NNZPerRow: 9, Kappa: 40, Scatter: 0.5, Seed: 8})
	p := 5
	part := sparse.NewPartition(a.Rows, p)
	neighbors := make([][]int, p)
	meter := power.NewMeter(false)
	_, err := cluster.Run(p, platform.Default(), meter, func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		neighbors[c.Rank()] = op.neighbors
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		for _, o := range neighbors[r] {
			found := false
			for _, back := range neighbors[o] {
				if back == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d -> %d", r, o)
			}
		}
	}
}

// TestDistributedPCGWithMonitorCorruption: CG recovers from a mid-run
// corruption on a spread-diagonal banded matrix, not just the Laplacian.
func TestDistributedPCGWithMonitorCorruption(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 240, NNZPerRow: 7, Kappa: 1000, Seed: 12})
	b, _ := matgen.RHS(a)
	p := 4
	part := sparse.NewPartition(a.Rows, p)
	results := make([]*Result, p)
	meter := power.NewMeter(false)
	_, err := cluster.Run(p, platform.Default(), meter, func(c *cluster.Comm) error {
		mon := &corruptingMonitor{fireAt: 8, rank: 2}
		res, err := CG(c, a, b, part, Options{Tol: 1e-10, MaxIters: 10 * a.Rows, Monitor: mon})
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Converged {
		t.Fatal("CG did not recover from corruption")
	}
	x := make([]float64, a.Rows)
	for r := 0; r < p; r++ {
		copy(part.Slice(x, r), results[r].XLocal)
	}
	res := make([]float64, a.Rows)
	a.MulVec(res, x)
	vec.Sub(res, b, res)
	if rel := vec.Nrm2(res) / vec.Nrm2(b); rel > 1e-9 {
		t.Errorf("true residual %g after corruption", rel)
	}
}

func TestSolveFaultFreeIters(t *testing.T) {
	a := matgen.Laplacian2D(8)
	b, _ := matgen.RHS(a)
	iters, conv := SolveFaultFreeIters(a, b, 1e-10, 1000)
	if !conv || iters <= 0 {
		t.Errorf("iters=%d conv=%v", iters, conv)
	}
}

// TestCGRejectsUnresolvedOptions: the distributed solver holds no
// defaults; a zero tolerance or iteration cap is the caller's error.
func TestCGRejectsUnresolvedOptions(t *testing.T) {
	a := matgen.Laplacian2D(4)
	b, _ := matgen.RHS(a)
	part := sparse.NewPartition(a.Rows, 2)
	for _, opts := range []Options{{MaxIters: 100}, {Tol: 1e-10}, {Tol: -1, MaxIters: 100}, {Tol: 1e-10, MaxIters: -1}} {
		_, err := cluster.Run(2, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
			_, err := CG(c, a, b, part, opts)
			return err
		})
		if err == nil {
			t.Errorf("CG accepted Tol %g, MaxIters %d", opts.Tol, opts.MaxIters)
		}
	}
}

func TestLocalOpPanicsOnBadSizes(t *testing.T) {
	a := matgen.Laplacian2D(4)
	part := sparse.NewPartition(a.Rows, 2)
	meter := power.NewMeter(false)
	_, err := cluster.Run(2, platform.Default(), meter, func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		defer func() {
			if recover() == nil {
				t.Error("expected panic for wrong x length")
			}
		}()
		op.GatherHalo(c, make([]float64, 3)) // wrong block size
		return nil
	})
	// The recovered panic in the closure is turned into a test error, not
	// a run error; the run itself ends normally on both ranks only if the
	// panic path re-panics. Accept either outcome here.
	_ = err
}

func TestNewLocalOpRejectsMismatchedPartition(t *testing.T) {
	a := matgen.Laplacian2D(4)
	part := sparse.NewPartition(a.Rows, 3) // 3 blocks for a 2-rank run
	meter := power.NewMeter(false)
	_, err := cluster.Run(2, platform.Default(), meter, func(c *cluster.Comm) error {
		defer func() { recover() }()
		NewLocalOp(c, a, part)
		return fmt.Errorf("no panic for mismatched partition")
	})
	if err != nil && err.Error() == "no panic for mismatched partition" {
		t.Error(err)
	}
}
