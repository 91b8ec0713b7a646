package recovery

import (
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// ESR is exact state reconstruction [Pachajoa, Levonyak et al.,
// arXiv:2007.04066]: each rank streams a small redundancy — its block of
// x and p plus the scalar rho — to a buddy node every iteration. When a
// node fails, the replacement pulls the buddy copies back and rebuilds
// the one vector the redundancy does not carry, its residual block, from
// the relation r = b - A x: one collective halo exchange supplies the
// remote x entries, the diagonal-block product is local. x, p and rho
// come back exactly, so CG continues with no rollback and no restart —
// unlike RD this costs no redundant hardware, only the per-iteration
// persist traffic. The rebuilt state is not the pre-fault state, though:
// b - A x is the true residual, while CG was carrying the recurrence
// residual, which has drifted from it. The difference costs a few extra
// iterations per run (measured with 10 recoveries: 199→201, 195→201,
// 1987→2000 and 499→500 iterations against the fault-free count).
//
// Simultaneous multi-rank failures recover back-to-back within one
// iteration boundary: each failed rank's buddy copies are independent
// and still describe the same boundary, so every reconstruction restores
// the same x, p and rho. Two documented aborts fall back to a restart
// from the initial guess, zeros: a system-wide outage (the buddy memory is wiped with everything
// else; the next completed iteration re-arms the redundancy), and a
// silent corruption detected only after the redundancy was re-persisted
// (the buddy copies are poisoned — restoring them cannot reach the
// pre-fault state).
type ESR struct {
	Base
	snapX    []float64
	snapP    []float64
	rho      float64
	snapIter int
	has      bool

	diag *sparse.CSR // cached diagonal block for residual reconstruction
	y    []float64
}

// persistBytes is the per-iteration redundancy payload: the rank's x and
// p blocks. The maximum block size is charged on every rank so all
// clocks advance identically at the iteration boundary that follows.
func (s *ESR) persistBytes(ctx *Ctx) int64 { return int64(8 * 2 * ctx.St.Part.Size(0)) }

// AfterIteration implements Scheme: persist the redundancy. The copy
// runs every iteration — the restore depends on the buddy holding the
// state of the boundary the fault strikes at.
func (s *ESR) AfterIteration(ctx *Ctx, completedIters int) error {
	defer ctx.enter(obs.SpanCheckpoint).leave()
	bytes := s.persistBytes(ctx)
	ctx.C.ElapseActive(ctx.Plat.MemWriteTime(bytes) + ctx.Plat.P2PTime(bytes))

	if s.snapX == nil {
		n := len(ctx.St.X)
		s.snapX = make([]float64, n)
		s.snapP = make([]float64, n)
	}
	copy(s.snapX, ctx.St.X)
	copy(s.snapP, ctx.St.P)
	s.rho = ctx.St.Rho
	s.snapIter = completedIters
	s.has = true
	return nil
}

// Recover implements Scheme: rebuild the failed rank's Krylov state. All
// ranks take identical control flow (has, snapIter and the fault are
// globally consistent), so the collective halo exchange of the exact
// path stays symmetric.
func (s *ESR) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	c := ctx.C
	defer ctx.enter(obs.SpanReconstruct).leave()

	if f.Class == fault.SWO {
		// A system-wide outage wipes every node's memory, buddy-held
		// redundancy included. Forget it: a later fault must not restore
		// from the destroyed copy.
		s.has = false
		s.snapIter = 0
	}
	if !s.has || s.snapIter > f.Iter {
		// No valid redundancy: either nothing was persisted yet (or an
		// outage destroyed it), or the fault is a silent corruption
		// detected after the redundancy was re-persisted — the buddy
		// copies are poisoned. Documented abort of the exact path:
		// zero the struck rank's block (the initial guess) and let CG
		// restart from it.
		if c.Rank() == f.Rank {
			vec.Zero(ctx.St.X)
			c.Compute(int64(len(ctx.St.X)))
		}
		return true, nil
	}

	// The buddy copies of x and p cross the network back to the
	// replacement process; rho rides along for free.
	if c.Rank() == f.Rank {
		c.ElapseIdle(ctx.Plat.P2PTime(int64(8 * 2 * len(ctx.St.X))))
		copy(ctx.St.X, s.snapX)
		copy(ctx.St.P, s.snapP)
		ctx.St.Rho = s.rho
	}

	// True-residual reconstruction on the failed rank's rows:
	// r = b_local - offdiag·x_remote - A_{p,p}·x_local. The halo
	// exchange is collective; the two products are local.
	buf := ctx.Op.GatherHalo(c, ctx.St.X)
	if c.Rank() == f.Rank {
		if s.diag == nil {
			s.diag = ctx.St.Part.DiagBlock(ctx.St.A, c.Rank())
			s.y = make([]float64, ctx.Op.N)
		}
		ctx.Op.OffDiagApply(c, ctx.St.R, ctx.St.BLocal, buf)
		s.diag.MulVec(s.y, ctx.St.X)
		c.Compute(s.diag.SpMVFlops())
		vec.Sub(ctx.St.R, ctx.St.R, s.y)
		c.Compute(int64(ctx.Op.N))
	}
	return false, nil
}
