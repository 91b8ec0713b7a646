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

// SeqPCGWork runs sequential preconditioned CG with a diagonal (Jacobi)
// preconditioner: it solves Op*x = b with M = diag(d). The localized
// LI/LSI constructions use it because the synthetic SPD spectra (and many
// real ones) have strongly varying diagonals, where Jacobi scaling cuts
// construction iterations dramatically — construction cost is the t_const
// the paper's Section 4 optimizations target.
//
// It is the repository's one sequential CG loop: with a unit diagonal,
// z = r and the iterates are plain CG's bit for bit, which is how
// SolveFaultFreeIters runs it.
//
// Convergence is measured on the recurrence residual norm ||r||
// relative to ||b||. ws supplies the scratch buffers, so the per-fault
// reconstruction solves stop allocating; it may be nil.
func SeqPCGWork(ws *SeqWorkspace, apply ApplyFunc, flopsPerApply int64, diag, b, x []float64, tol float64, maxIters int) SeqResult {
	n := len(b)
	if len(x) != n || len(diag) != n {
		panic(fmt.Sprintf("solver: SeqPCGWork len(x)=%d len(diag)=%d len(b)=%d", len(x), len(diag), n))
	}
	if maxIters <= 0 {
		panic(fmt.Sprintf("solver: SeqPCGWork maxIters=%d, want > 0", maxIters))
	}
	if ws == nil {
		ws = new(SeqWorkspace)
	}
	res := SeqResult{}

	invD := wsSized(&ws.invD, n)
	for i, d := range diag {
		if d <= 0 || math.IsNaN(d) {
			// Non-SPD-consistent diagonal: fall back to identity scaling
			// for that entry rather than failing the reconstruction.
			invD[i] = 1
			continue
		}
		invD[i] = 1 / d
	}

	r := wsSized(&ws.r, n)
	z := wsSized(&ws.z, n)
	p := wsSized(&ws.p, n)
	q := wsSized(&ws.q, n)

	apply(r, x)
	vec.Sub(r, b, r)
	res.Flops += flopsPerApply + int64(n)
	for i := range z {
		z[i] = invD[i] * r[i]
	}
	res.Flops += int64(n)
	copy(p, z)
	rho := vec.Dot(r, z)
	rr := vec.Dot(r, r)
	res.Flops += 2 * vec.DotFlops(n)
	normB := vec.Nrm2(b)
	res.Flops += vec.Nrm2Flops(n)
	if normB == 0 {
		normB = 1
	}

	for res.Iters = 0; res.Iters < maxIters; res.Iters++ {
		res.RelRes = math.Sqrt(rr) / normB
		if res.RelRes <= tol {
			res.Converged = true
			return res
		}
		apply(q, p)
		pq := vec.Dot(p, q)
		res.Flops += flopsPerApply + vec.DotFlops(n)
		if pq <= 0 || math.IsNaN(pq) {
			return res
		}
		alpha := rho / pq
		vec.Axpy(alpha, p, x)
		// Fused update: r -= alpha q, z = invD.*r, and both reductions in
		// one pass — bitwise-identical to the unfused sequence.
		var rhoNew, rrNew float64
		for i, qi := range q {
			ri := r[i] - alpha*qi
			r[i] = ri
			zi := invD[i] * ri
			z[i] = zi
			rhoNew += ri * zi
			rrNew += ri * ri
		}
		rr = rrNew
		res.Flops += 2 * vec.AxpyFlops(n)
		res.Flops += int64(n) + 2*vec.DotFlops(n)
		beta := rhoNew / rho
		vec.Xpby(z, beta, p)
		res.Flops += 2 * int64(n)
		rho = rhoNew
	}
	res.RelRes = math.Sqrt(rr) / normB
	res.Converged = res.RelRes <= tol
	return res
}

// SeqPCGMatrixWork is SeqPCGWork on a CSR operator with its own diagonal
// as the preconditioner. ws may be nil.
func SeqPCGMatrixWork(ws *SeqWorkspace, a *sparse.CSR, b, x []float64, tol float64, maxIters int) SeqResult {
	if a.Rows != a.Cols || a.Rows != len(b) {
		panic(fmt.Sprintf("solver: SeqPCGMatrixWork %s with len(b)=%d", a, len(b)))
	}
	if ws == nil {
		ws = new(SeqWorkspace)
	}
	diag := wsSized(&ws.diag, a.Rows)
	for i := range diag {
		diag[i] = a.At(i, i)
	}
	return SeqPCGWork(ws, func(y, v []float64) { a.MulVec(y, v) }, a.SpMVFlops(), diag, b, x, tol, maxIters)
}

// PCGLSWork solves the least-squares problem min ||beta - M*x||₂ through
// CG on the normal-equation operator G = M*Mᵀ, applying M and Mᵀ each
// iteration, with Jacobi preconditioning by diag(G)_i = ||row_i(M)||².
// The LSI reconstruction uses M = A_{p_i,:} and solves Eq. 21,
// (A_{p_i,:} A_{p_i,:}ᵀ) x = A_{p_i,:} beta: rhs is that reduced
// right-hand side, and it and x have length M.Rows. G is SPD when M has
// full row rank. ws may be nil.
func PCGLSWork(ws *SeqWorkspace, m *sparse.CSR, rhs, x []float64, tol float64, maxIters int) SeqResult {
	if len(rhs) != m.Rows || len(x) != m.Rows {
		panic(fmt.Sprintf("solver: PCGLSWork %s with len(rhs)=%d len(x)=%d", m, len(rhs), len(x)))
	}
	if ws == nil {
		ws = new(SeqWorkspace)
	}
	diag := wsSized(&ws.diag, m.Rows)
	for i := 0; i < m.Rows; i++ {
		_, vals := m.Row(i)
		var s float64
		for _, v := range vals {
			s += v * v
		}
		diag[i] = s
	}
	tmp := wsSized(&ws.tmp, m.Cols)
	apply := func(y, v []float64) {
		m.MulTransVec(tmp, v)
		m.MulVec(y, tmp)
	}
	return SeqPCGWork(ws, apply, 2*m.SpMVFlops(), diag, rhs, x, tol, maxIters)
}
