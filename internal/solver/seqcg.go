package solver

import (
	"fmt"
	"math"

	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// ApplyFunc computes y = Op*x for an implicit linear operator.
type ApplyFunc func(y, x []float64)

// SeqResult reports a sequential solve.
type SeqResult struct {
	Iters     int
	RelRes    float64
	Converged bool
	// Flops is the total flop count, for charging to a virtual clock.
	Flops int64
}

// SeqCG runs plain sequential CG on the SPD operator apply, solving
// Op*x = b starting from the provided x (updated in place). It converges
// when ||r||/||b|| <= tol or maxIters is reached. flopsPerApply is the
// operator's per-application flop count for the cost accounting.
//
// This is the localized construction kernel of the paper's Section 4.1:
// the failed process solves its reconstruction system with local CG
// instead of LU/QR, trading exactness (unneeded — the target is itself an
// approximation of the lost data) for time and energy.
func SeqCG(apply ApplyFunc, flopsPerApply int64, b, x []float64, tol float64, maxIters int) SeqResult {
	n := len(b)
	if len(x) != n {
		panic(fmt.Sprintf("solver: SeqCG len(x)=%d len(b)=%d", len(x), n))
	}
	if maxIters <= 0 {
		panic(fmt.Sprintf("solver: SeqCG maxIters=%d, want > 0", maxIters))
	}
	res := SeqResult{}

	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)

	apply(r, x)
	vec.Sub(r, b, r)
	res.Flops += flopsPerApply + int64(n)
	copy(p, r)
	rho := vec.Dot(r, r)
	res.Flops += vec.DotFlops(n)
	normB := vec.Nrm2(b)
	res.Flops += vec.Nrm2Flops(n)
	if normB == 0 {
		normB = 1
	}

	for res.Iters = 0; res.Iters < maxIters; res.Iters++ {
		res.RelRes = math.Sqrt(rho) / normB
		if res.RelRes <= tol {
			res.Converged = true
			return res
		}
		apply(q, p)
		pq := vec.Dot(p, q)
		res.Flops += flopsPerApply + vec.DotFlops(n)
		if pq <= 0 || math.IsNaN(pq) {
			// Loss of positive-definiteness in finite precision; stop
			// with the best iterate so far.
			return res
		}
		alpha := rho / pq
		vec.Axpy(alpha, p, x)
		rhoNew := vec.AxpyDot(-alpha, q, r)
		res.Flops += 2*vec.AxpyFlops(n) + vec.DotFlops(n)
		beta := rhoNew / rho
		vec.Xpby(r, beta, p)
		res.Flops += 2 * int64(n)
		rho = rhoNew
	}
	res.RelRes = math.Sqrt(rho) / normB
	res.Converged = res.RelRes <= tol
	return res
}

// SeqCGMatrix is SeqCG specialized to a CSR matrix operator.
func SeqCGMatrix(a *sparse.CSR, b, x []float64, tol float64, maxIters int) SeqResult {
	if a.Rows != a.Cols || a.Rows != len(b) {
		panic(fmt.Sprintf("solver: SeqCGMatrix %s with len(b)=%d", a, len(b)))
	}
	return SeqCG(func(y, v []float64) { a.MulVec(y, v) }, a.SpMVFlops(), b, x, tol, maxIters)
}
