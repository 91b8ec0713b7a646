package solver

import (
	"fmt"
	"math"

	"resilience/internal/cluster"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// PipelinedCG is the communication-reduced CG variant of Ghysels &
// Vanroose: it fuses the two dot-product reductions of classic CG into a
// single allreduce per iteration at the cost of one extra SpMV-sized
// recurrence. On latency-bound systems (the regime the paper's Section 6
// projects, where T_O grows with log P) it halves the synchronization
// count — an extension used by the parallel-overhead ablations.
//
// The recurrences follow the standard derivation:
//
//	w = A r
//	gamma = (r,r), delta = (w,r)         — one fused allreduce
//	beta = gamma/gamma_old, alpha = gamma/(delta - beta*gamma/alpha_old)
//	p = r + beta p;  q = w + beta q      — q tracks A p
//	x += alpha p;  r -= alpha q;  w = A r
//
// Like CG it starts from x0 = 0. Fault recovery hooks are not wired into
// this variant; it exists to quantify the synchronization trade-off
// against the monitored CG.
func PipelinedCG(c *cluster.Comm, a *sparse.CSR, b []float64, part *sparse.Partition, opts Options) (*Result, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("solver: PipelinedCG len(b)=%d for %s", len(b), a)
	}
	if opts.Tol <= 0 || opts.MaxIters <= 0 {
		return nil, fmt.Errorf("solver: PipelinedCG needs a positive Tol and MaxIters, got %g and %d", opts.Tol, opts.MaxIters)
	}
	if opts.Monitor != nil {
		return nil, fmt.Errorf("solver: PipelinedCG does not support monitors")
	}
	op := NewLocalOp(c, a, part)
	n := op.N

	bLocal := make([]float64, n)
	copy(bLocal, part.Slice(b, c.Rank()))
	x := make([]float64, n)
	r := make([]float64, n)
	w := make([]float64, n) // the extra pipelined recurrence vector
	p := make([]float64, n)
	q := make([]float64, n)

	// r = b - A x;  w = A r.
	op.MulVecDist(c, r, x)
	vec.Sub(r, bLocal, r)
	c.Compute(int64(n))
	op.MulVecDist(c, w, r)

	localBB := vec.Dot(bLocal, bLocal)
	c.Compute(vec.DotFlops(n))
	normB := math.Sqrt(c.AllreduceScalarSum(localBB))
	if normB == 0 {
		normB = 1
	}

	res := &Result{}
	var gammaOld, alphaOld float64
	first := true
	for res.Iters = 0; res.Iters < opts.MaxIters; res.Iters++ {
		// One fused reduction: gamma = (r,r), delta = (w,r).
		localG := vec.Dot(r, r)
		localD := vec.Dot(w, r)
		c.Compute(2 * vec.DotFlops(n))
		gamma, delta := c.AllreduceSum2(localG, localD)

		relres := math.Sqrt(gamma) / normB
		if c.Rank() == 0 {
			res.History = append(res.History, relres)
		}
		if relres <= opts.Tol {
			res.Converged = true
			res.RelRes = relres
			break
		}

		var alpha, beta float64
		if first {
			beta = 0
			alpha = gamma / delta
			first = false
		} else {
			beta = gamma / gammaOld
			denom := delta - beta*gamma/alphaOld
			if denom == 0 || math.IsNaN(denom) {
				res.RelRes = relres
				res.XLocal = x
				return res, nil
			}
			alpha = gamma / denom
		}
		if alpha <= 0 || math.IsNaN(alpha) {
			res.RelRes = relres
			res.XLocal = x
			return res, nil
		}

		// p = r + beta p;  q = w + beta q.
		vec.Xpby(r, beta, p)
		vec.Xpby(w, beta, q)
		// x += alpha p;  r -= alpha q.
		vec.Axpy(alpha, p, x)
		vec.Axpy(-alpha, q, r)
		c.Compute(4 * vec.AxpyFlops(n))
		// w = A r (the pipelined SpMV that overlaps the next reduction on
		// real hardware; virtual time charges it sequentially, which is
		// conservative).
		op.MulVecDist(c, w, r)

		gammaOld, alphaOld = gamma, alpha
	}
	if !res.Converged {
		localG := vec.Dot(r, r)
		c.Compute(vec.DotFlops(n))
		gamma := c.AllreduceScalarSum(localG)
		res.RelRes = math.Sqrt(gamma) / normB
		res.Converged = res.RelRes <= opts.Tol
	}
	res.XLocal = x
	return res, nil
}
