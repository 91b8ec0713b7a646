package solver

import (
	"fmt"
	"math"

	"resilience/internal/cluster"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// State is the per-rank CG state a Monitor (fault injection and recovery)
// may inspect and repair. X, R, P, Q are the rank's owned blocks; A and B
// are the global static data, which the paper assumes recoverable from
// persistent storage at any time (Section 3.2).
type State struct {
	A    *sparse.CSR
	B    []float64 // global right-hand side (static data)
	Part *sparse.Partition

	BLocal []float64
	X      []float64
	R      []float64
	P      []float64
	Q      []float64
	Rho    float64
	NormB  float64
}

// Iter is the context a Monitor receives at each iteration boundary. At
// that point every rank holds an identical virtual clock (the boundary
// immediately follows a collective), so monitors can make globally
// consistent decisions without communicating.
type Iter struct {
	C     *cluster.Comm
	Op    *LocalOp
	State *State
	// K is the number of iterations executed so far (including re-executed
	// ones after rollbacks), i.e. the cost counter the paper reports.
	K int
}

// Monitor observes and may repair a distributed CG run.
type Monitor interface {
	// BeforeIteration runs at each iteration boundary before the SpMV.
	// Returning restart=true makes CG recompute R and P from the (possibly
	// repaired) X — the "renewal of other variables" the paper notes all
	// recovery schemes force.
	BeforeIteration(it *Iter) (restart bool, err error)
	// AfterIteration runs after the iteration's updates (checkpointing
	// hook).
	AfterIteration(it *Iter) error
}

// Options configure a distributed CG solve.
type Options struct {
	Tol      float64 // relative residual target (paper: 1e-12); must be positive
	MaxIters int     // executed-iteration cap; must be positive
	Monitor  Monitor // optional
}

// Result reports a distributed CG solve from one rank's perspective. The
// scalar fields are identical on every rank; History is recorded on rank
// 0 only.
type Result struct {
	Iters     int
	Converged bool
	RelRes    float64
	Restarts  int
	// History holds the relative recurrence residual at each iteration
	// boundary (rank 0 only).
	History []float64
	// XLocal is the rank's owned block of the final iterate.
	XLocal []float64
}

// CG runs distributed block-row CG on rank c from x0 = 0. All ranks call
// it collectively with identical arguments (a and b are shared read-only).
// On apparent convergence it recomputes b - A*x and keeps iterating if
// the recurrence residual has drifted (it can, after faults): the paper's
// runs terminate on the same accuracy for every scheme, and this makes
// that comparison honest. A run stopped by MaxIters with its recurrence
// under Tol gets the same check: it is Converged only if the check
// passes, and its RelRes is the true residual's either way.
func CG(c *cluster.Comm, a *sparse.CSR, b []float64, part *sparse.Partition, opts Options) (*Result, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("solver: CG len(b)=%d for %s", len(b), a)
	}
	if opts.Tol <= 0 || opts.MaxIters <= 0 {
		return nil, fmt.Errorf("solver: CG needs a positive Tol and MaxIters, got %g and %d", opts.Tol, opts.MaxIters)
	}
	op := NewLocalOp(c, a, part)
	n := op.N

	st := &State{
		A:      a,
		B:      b,
		Part:   part,
		BLocal: make([]float64, n),
		X:      make([]float64, n),
		R:      make([]float64, n),
		P:      make([]float64, n),
		Q:      make([]float64, n),
	}
	copy(st.BLocal, part.Slice(b, c.Rank()))

	// ||b|| once.
	localBB := vec.Dot(st.BLocal, st.BLocal)
	c.Compute(vec.DotFlops(n))
	st.NormB = math.Sqrt(c.AllreduceScalarSum(localBB))
	if st.NormB == 0 {
		st.NormB = 1
	}

	// restart recomputes R, P, Rho from X: one distributed SpMV plus an
	// allreduce — the cost every recovery scheme pays to resume CG.
	restart := func() {
		if o := c.Observer(); o != nil {
			o.IncRestarts()
		}
		op.MulVecDist(c, st.R, st.X)
		vec.Sub(st.R, st.BLocal, st.R)
		c.Compute(int64(n))
		copy(st.P, st.R)
		local := vec.Dot(st.R, st.R)
		c.Compute(vec.DotFlops(n))
		st.Rho = c.AllreduceScalarSum(local)
	}
	restart()

	// confirmed checks an apparent convergence on the true residual
	// b - A*x, which faults can make the recurrence lie about, and leaves
	// its squared norm in Rho. Convergence is only claimed at the
	// requested tolerance: accepting any slack here would let a faulted
	// run report an accuracy it never reached.
	confirmed := func() bool {
		op.MulVecDist(c, st.Q, st.X)
		vec.Sub(st.Q, st.BLocal, st.Q)
		c.Compute(int64(n))
		local := vec.Dot(st.Q, st.Q)
		c.Compute(vec.DotFlops(n))
		st.Rho = c.AllreduceScalarSum(local)
		return math.Sqrt(st.Rho)/st.NormB <= opts.Tol
	}

	res := &Result{}
	it := &Iter{C: c, Op: op, State: st}
	for res.Iters = 0; res.Iters < opts.MaxIters; res.Iters++ {
		it.K = res.Iters
		relres := math.Sqrt(st.Rho) / st.NormB
		if c.Rank() == 0 {
			res.History = append(res.History, relres)
		}
		if relres <= opts.Tol {
			if confirmed() {
				res.Converged = true
				break
			}
			// Drifted: rebuild the recurrence from the current iterate.
			restart()
			res.Restarts++
			continue
		}

		if opts.Monitor != nil {
			doRestart, err := opts.Monitor.BeforeIteration(it)
			if err != nil {
				return nil, err
			}
			if doRestart {
				restart()
				res.Restarts++
			}
		}

		// q = A p
		op.MulVecDist(c, st.Q, st.P)
		localPQ := vec.Dot(st.P, st.Q)
		c.Compute(vec.DotFlops(n))
		pq := c.AllreduceScalarSum(localPQ)
		if pq <= 0 || math.IsNaN(pq) {
			// The Krylov process broke down (possible right after a bad
			// reconstruction); rebuild from the current iterate.
			restart()
			res.Restarts++
			continue
		}
		alpha := st.Rho / pq
		vec.Axpy(alpha, st.P, st.X)
		localRR := vec.AxpyDot(-alpha, st.Q, st.R)
		c.Compute(2 * vec.AxpyFlops(n))
		c.Compute(vec.DotFlops(n))
		rhoNew := c.AllreduceScalarSum(localRR)
		beta := rhoNew / st.Rho
		vec.Xpby(st.R, beta, st.P)
		c.Compute(2 * int64(n))
		st.Rho = rhoNew

		if opts.Monitor != nil {
			it.K = res.Iters + 1
			if err := opts.Monitor.AfterIteration(it); err != nil {
				return nil, err
			}
		}
	}
	// A run stopped by MaxIters whose recurrence met Tol at the end is
	// confirmed like any other.
	if !res.Converged && math.Sqrt(st.Rho)/st.NormB <= opts.Tol {
		res.Converged = confirmed()
	}
	res.RelRes = math.Sqrt(st.Rho) / st.NormB
	res.XLocal = st.X
	return res, nil
}

// SolveFaultFreeIters runs a plain sequential CG on (a, b) — SeqPCGWork
// with a unit diagonal — and returns the iteration count at tolerance
// tol: the FF baseline the paper normalizes every experiment against,
// and the input the evenly-spaced fault schedules need.
func SolveFaultFreeIters(a *sparse.CSR, b []float64, tol float64, maxIters int) (int, bool) {
	x := make([]float64, a.Rows)
	r := SeqPCGWork(nil, a.MulVec, a.SpMVFlops(), unitDiag(a.Rows), b, x, tol, maxIters)
	return r.Iters, r.Converged
}

// unitDiag returns n ones: the diagonal that makes SeqPCGWork plain CG.
func unitDiag(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	return d
}
