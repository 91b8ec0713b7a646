package solver

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"resilience/internal/matgen"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

func relErr(x, want []float64) float64 {
	return vec.Dist2(x, want) / math.Max(vec.Nrm2(want), 1)
}

// plainCG is the sequential kernel with M = I, the plain CG that
// SolveFaultFreeIters runs.
func plainCG(a *sparse.CSR, b, x []float64, tol float64, maxIters int) SeqResult {
	return SeqPCGWork(nil, a.MulVec, a.SpMVFlops(), unitDiag(a.Rows), b, x, tol, maxIters)
}

// diagOf returns the main diagonal of a square matrix as a dense vector
// (zeros where absent): the Jacobi diagonal a test feeds SeqPCGWork.
func diagOf(a *sparse.CSR) []float64 {
	d := make([]float64, a.Rows)
	for i := range d {
		d[i] = a.At(i, i)
	}
	return d
}

func TestDiag(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 2)
	coo.Add(1, 1, 3)
	coo.Add(2, 1, 7)
	if d := diagOf(coo.ToCSR()); d[0] != 2 || d[1] != 3 || d[2] != 0 {
		t.Errorf("diagOf got %v", d)
	}
}

func TestSeqCGOnLaplacian(t *testing.T) {
	a := matgen.Laplacian2D(12)
	b, xTrue := matgen.RHS(a)
	x := make([]float64, a.Rows)
	res := plainCG(a, b, x, 1e-12, 10*a.Rows)
	if !res.Converged {
		t.Fatalf("did not converge: relres %g after %d iters", res.RelRes, res.Iters)
	}
	if e := relErr(x, xTrue); e > 1e-8 {
		t.Errorf("solution error %g", e)
	}
	if res.Flops <= 0 {
		t.Error("flop accounting missing")
	}
}

func TestSeqCGWarmStart(t *testing.T) {
	a := matgen.Laplacian1D(50)
	b, xTrue := matgen.RHS(a)
	// Starting at the solution must converge immediately.
	x := append([]float64(nil), xTrue...)
	res := plainCG(a, b, x, 1e-10, 100)
	if !res.Converged || res.Iters != 0 {
		t.Errorf("warm start took %d iterations", res.Iters)
	}
}

func TestSeqCGZeroRHS(t *testing.T) {
	a := matgen.Laplacian1D(10)
	b := make([]float64, 10)
	x := make([]float64, 10)
	res := plainCG(a, b, x, 1e-12, 100)
	if !res.Converged {
		t.Error("zero RHS must converge trivially")
	}
}

func TestSeqCGMaxItersRespected(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 200, NNZPerRow: 5, Kappa: 1e6, Seed: 1})
	b, _ := matgen.RHS(a)
	x := make([]float64, a.Rows)
	res := plainCG(a, b, x, 1e-14, 3)
	if res.Iters > 3 {
		t.Errorf("ran %d iterations with cap 3", res.Iters)
	}
	if res.Converged {
		t.Error("cannot have converged in 3 iterations on kappa=1e6")
	}
}

// Property: plain CG solves random small SPD systems.
func TestQuickSeqCGSolves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		a := matgen.BandedSPD(matgen.BandedOpts{N: n, NNZPerRow: 5, Kappa: 50, Seed: seed})
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, want)
		x := make([]float64, n)
		res := plainCG(a, b, x, 1e-12, 20*n)
		return res.Converged && relErr(x, want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSeqPCGMatchesCG(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 300, NNZPerRow: 7, Kappa: 5000, Seed: 2})
	b, _ := matgen.RHS(a)
	xcg := make([]float64, a.Rows)
	rcg := plainCG(a, b, xcg, 1e-10, 10*a.Rows)
	xpcg := make([]float64, a.Rows)
	rpcg := SeqPCGMatrixWork(nil, a, b, xpcg, 1e-10, 10*a.Rows)
	if !rcg.Converged || !rpcg.Converged {
		t.Fatalf("convergence: cg=%v pcg=%v", rcg.Converged, rpcg.Converged)
	}
	if e := relErr(xpcg, xcg); e > 1e-6 {
		t.Errorf("PCG and CG disagree: %g", e)
	}
	// Jacobi must pay off on this spread-diagonal matrix.
	if rpcg.Iters >= rcg.Iters {
		t.Errorf("PCG %d iters not better than CG %d", rpcg.Iters, rcg.Iters)
	}
}

func TestSeqPCGHandlesBadDiagonal(t *testing.T) {
	// A zero diagonal entry must not crash the preconditioner.
	a := matgen.Laplacian1D(20)
	b, _ := matgen.RHS(a)
	diag := diagOf(a)
	diag[3] = 0
	diag[7] = -1
	x := make([]float64, 20)
	res := SeqPCGWork(nil, func(y, v []float64) { a.MulVec(y, v) }, a.SpMVFlops(), diag, b, x, 1e-10, 400)
	if !res.Converged {
		t.Error("PCG with patched diagonal did not converge")
	}
}

func TestCGLSSolvesLeastSquares(t *testing.T) {
	// Build a full-row-rank wide matrix M (rows < cols) and consistent
	// rhs: preconditioned CGLS solves (M Mᵀ) x = rhs.
	rng := rand.New(rand.NewSource(5))
	coo := sparse.NewCOO(10, 30)
	for i := 0; i < 10; i++ {
		coo.Add(i, i, 5+rng.Float64())
		for k := 0; k < 4; k++ {
			coo.Add(i, 10+rng.Intn(20), rng.NormFloat64())
		}
	}
	m := coo.ToCSR()
	want := make([]float64, 10)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	// rhs = G*want with G = M Mᵀ.
	tmp := make([]float64, 30)
	m.MulTransVec(tmp, want)
	rhs := make([]float64, 10)
	m.MulVec(rhs, tmp)

	x := make([]float64, 10)
	res := PCGLSWork(nil, m, rhs, x, 1e-12, 1000)
	if !res.Converged {
		t.Fatalf("PCGLS did not converge: %g", res.RelRes)
	}
	if e := relErr(x, want); e > 1e-6 {
		t.Errorf("PCGLS error %g", e)
	}
}

func TestSeqCGPanicsOnMismatch(t *testing.T) {
	a := matgen.Laplacian1D(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	plainCG(a, make([]float64, 5), make([]float64, 5), 1e-10, 10)
}

// TestSeqSolversRejectNonPositiveMaxIters: like solver.CG, the sequential
// solvers hold no iteration-cap default; a cap of zero or below is a
// caller bug and panics instead of turning into 10n.
func TestSeqSolversRejectNonPositiveMaxIters(t *testing.T) {
	a := matgen.Laplacian1D(4)
	b := []float64{1, 2, 3, 4}
	for name, solve := range map[string]func(maxIters int){
		"SeqPCGWork": func(m int) { SeqPCGMatrixWork(nil, a, b, make([]float64, 4), 1e-10, m) },
		"PCGLSWork":  func(m int) { PCGLSWork(nil, a, b, make([]float64, 4), 1e-10, m) },
	} {
		for _, m := range []int{0, -1} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "maxIters") {
						t.Errorf("%s(maxIters=%d): want a maxIters panic, got %q", name, m, msg)
					}
				}()
				solve(m)
			}()
		}
	}
}
