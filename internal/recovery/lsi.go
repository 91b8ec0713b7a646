package recovery

import (
	"fmt"

	"resilience/internal/dense"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/solver"
	"resilience/internal/vec"
)

// LSI is least-squares interpolation of the lost block (Eq. 18): the
// failed process solves min_x ||beta - A_{:,p_i} x|| with
// beta = b - Σ_{j≠i} A_{:,p_j} x_j^k (Eq. 20).
//
// Forming beta is inherently parallel: each surviving rank contributes
// A_{:,p_j} x_j = (A_{p_j,:})ᵀ x_j from its own row block (A is
// symmetric), and one length-n allreduce delivers the sum — this is why
// the paper's measured t_const for FW grows with system size.
//
// The solve then happens on the failed rank only:
//
//   - ConstructExact: QR of the column block A_{:,p_i}, restricted to its
//     structurally nonzero rows (rows that are entirely zero in A_{:,p_i}
//     contribute a constant to the residual and cannot affect the
//     minimizer) — the dense stand-in for the parallel sparse QR baseline.
//   - ConstructCG: the paper's Eq. 21 transformation
//     (A_{p_i,:} A_{p_i,:}ᵀ) x = A_{p_i,:} beta, solved with localized
//     CGLS that applies the row block twice per iteration.
type LSI struct {
	Base
	Construct Construction
	DVFS      bool
	LocalTol  float64 // as LI.LocalTol

	z    []float64           // length-n contribution buffer
	beta []float64           // length-n right-hand side, reused per fault
	rhs  []float64           // reduced right-hand side, reused per fault
	x    []float64           // construction solution buffer, reused per fault
	ws   solver.SeqWorkspace // construction scratch, reused per fault
}

// Recover implements Scheme.
func (s *LSI) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	c := ctx.C
	defer ctx.enter(obs.SpanReconstruct).leave()

	n := ctx.St.A.Rows
	if s.z == nil {
		s.z = make([]float64, n)
	}
	vec.Zero(s.z)
	if c.Rank() != f.Rank {
		// Contribute A_{:,p_j} x_j = (A_{p_j,:})ᵀ x_j.
		rowBlock := ctx.Op.RowBlock()
		rowBlock.MulTransVecAdd(s.z, ctx.St.X)
		c.Compute(rowBlock.SpMVFlops())
	}
	// The length-n allreduce that assembles beta's subtrahend on every
	// rank (the failed one included).
	zsum := c.AllreduceSum(s.z)

	var solveErr error
	parkOthers(ctx, f.Rank, s.DVFS, func() {
		// beta = b - Σ_{j≠i} A_{:,p_j} x_j  (global length n).
		if s.beta == nil {
			s.beta = make([]float64, n)
		}
		beta := s.beta
		vec.Sub(beta, ctx.St.B, zsum)
		c.Compute(int64(n))
		switch s.Construct {
		case ConstructExact:
			solveErr = s.solveQR(ctx, beta)
		case ConstructCG:
			solveErr = s.solveCGLS(ctx, beta)
		default:
			solveErr = fmt.Errorf("recovery: unknown construction %d", int(s.Construct))
		}
	})
	return true, solveErr
}

// solveQR runs the exact least-squares baseline on the failed rank.
func (s *LSI) solveQR(ctx *Ctx, beta []float64) error {
	c := ctx.C
	nf := ctx.Op.N
	colBlock := ctx.St.Part.ColBlock(ctx.St.A, c.Rank())
	// Restrict to structurally nonzero rows.
	var rows []int
	for i := 0; i < colBlock.Rows; i++ {
		if colBlock.RowNNZ(i) > 0 {
			rows = append(rows, i)
		}
	}
	if len(rows) < nf {
		return fmt.Errorf("recovery: LSI column block is rank-deficient (%d nonzero rows < %d cols)",
			len(rows), nf)
	}
	d := dense.NewMatrix(len(rows), nf)
	rhs := make([]float64, len(rows))
	for di, i := range rows {
		cols, vals := colBlock.Row(i)
		for k, j := range cols {
			d.Set(di, j, vals[k])
		}
		rhs[di] = beta[i]
	}
	qr, err := dense.NewQR(d)
	if err != nil {
		return fmt.Errorf("recovery: LSI exact construction: %w", err)
	}
	x, err := qr.SolveLS(rhs)
	if err != nil {
		return fmt.Errorf("recovery: LSI exact solve: %w", err)
	}
	c.Compute(qr.FactorFlops() + qr.SolveFlops())
	copy(ctx.St.X, x)
	return nil
}

// solveCGLS runs the paper's localized Eq. 21 construction on the failed
// rank: rhs = A_{p_i,:} beta, then CG on G = A_{p_i,:} A_{p_i,:}ᵀ.
func (s *LSI) solveCGLS(ctx *Ctx, beta []float64) error {
	c := ctx.C
	nf := ctx.Op.N
	if len(s.rhs) < nf {
		s.rhs = make([]float64, nf)
		s.x = make([]float64, nf)
	}
	rhs := s.rhs[:nf]
	rowBlock := ctx.Op.RowBlock()
	rowBlock.MulVec(rhs, beta)
	c.Compute(rowBlock.SpMVFlops())

	tol := s.LocalTol
	if tol <= 0 {
		tol = DefaultLocalTol
	}
	x := s.x[:nf]
	vec.Zero(x)
	res := solver.PCGLSWork(&s.ws, rowBlock, rhs, x, tol, 10*nf)
	c.Compute(res.Flops)
	copy(ctx.St.X, x)
	return nil
}
