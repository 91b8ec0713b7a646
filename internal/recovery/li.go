package recovery

import (
	"fmt"

	"resilience/internal/dense"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/solver"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// Construction selects how LI/LSI build their interpolation.
type Construction int

const (
	// ConstructCG (the default) is the paper's Section 4.1 optimization:
	// localized CG (LI) / CGLS (LSI) to a configurable tolerance on the
	// failed process only.
	ConstructCG Construction = iota
	// ConstructExact is the prior-work baseline: LU factorization of the
	// diagonal block for LI, QR of the column block for LSI [Agullo et
	// al. 2016].
	ConstructExact
)

// DefaultLocalTol is the localized construction tolerance LI and LSI use
// when LocalTol is unset. The construction's iteration cap is not a
// setting: it is 10 × the size of the system being constructed.
const DefaultLocalTol = 1e-6

func (c Construction) String() string {
	if c == ConstructExact {
		return "exact"
	}
	return "cg"
}

// LI is linear interpolation of the lost block (Eq. 17): the failed
// process solves A_{p_i,p_i} x = y with y = b_{p_i} - Σ_{j≠i} A_{p_i,p_j}
// x_j (Eq. 19). Remote x values arrive through one halo exchange; the
// solve is then fully local.
type LI struct {
	Base
	Construct Construction
	// DVFS parks the non-reconstructing cores at the lowest frequency
	// during construction (the paper's LI-DVFS).
	DVFS bool
	// LocalTol is the CG construction tolerance (ConstructCG only; zero
	// means DefaultLocalTol). The paper sweeps it in Figure 4.
	LocalTol float64

	diag *sparse.CSR // cached diagonal block of this rank
	y    []float64
	x    []float64           // construction solution buffer, reused per fault
	ws   solver.SeqWorkspace // construction scratch, reused per fault
}

// Recover implements Scheme.
func (s *LI) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	c := ctx.C
	// The span covers every rank: on non-failed ranks it shows the parked
	// wait (Figure 7a's f_min plateau), on the failed rank the construction.
	defer ctx.enter(obs.SpanReconstruct).leave()

	// One collective halo exchange gives the failed rank every remote x
	// entry its off-diagonal row entries touch.
	buf := ctx.Op.GatherHalo(c, ctx.St.X)

	var solveErr error
	parkOthers(ctx, f.Rank, s.DVFS, func() {
		n := ctx.Op.N
		if s.diag == nil {
			s.diag = ctx.St.Part.DiagBlock(ctx.St.A, c.Rank())
			s.y = make([]float64, n)
		}
		ctx.Op.OffDiagApply(c, s.y, ctx.St.BLocal, buf)
		switch s.Construct {
		case ConstructExact:
			solveErr = s.solveLU(ctx, s.y)
		case ConstructCG:
			solveErr = s.solveCG(ctx, s.y)
		default:
			solveErr = fmt.Errorf("recovery: unknown construction %d", int(s.Construct))
		}
	})
	return true, solveErr
}

// solveLU runs the exact prior-work construction: dense LU of the
// diagonal block. The factorization is re-done per fault, as the baseline
// does, and its flops are charged to the failed rank's clock.
func (s *LI) solveLU(ctx *Ctx, y []float64) error {
	n := ctx.Op.N
	d := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cols, vals := s.diag.Row(i)
		for k, j := range cols {
			d.Set(i, j, vals[k])
		}
	}
	lu, err := dense.NewLU(d)
	if err != nil {
		return fmt.Errorf("recovery: LI exact construction: %w", err)
	}
	x, err := lu.Solve(y)
	if err != nil {
		return fmt.Errorf("recovery: LI exact solve: %w", err)
	}
	ctx.C.Compute(lu.FactorFlops() + lu.SolveFlops())
	copy(ctx.St.X, x)
	return nil
}

// solveCG runs the paper's localized construction: sequential
// Jacobi-preconditioned CG on the SPD diagonal block to LocalTol,
// starting from zero.
func (s *LI) solveCG(ctx *Ctx, y []float64) error {
	n := ctx.Op.N
	tol := s.LocalTol
	if tol <= 0 {
		tol = DefaultLocalTol
	}
	if s.x == nil {
		s.x = make([]float64, n)
	}
	vec.Zero(s.x)
	res := solver.SeqPCGMatrixWork(&s.ws, s.diag, y, s.x, tol, 10*n)
	ctx.C.Compute(res.Flops)
	copy(ctx.St.X, s.x)
	return nil
}
