// Package recovery implements the paper's recovery schemes (Table 2):
//
//	CR-D / CR-M  checkpoint to / rollback from disk or memory
//	DMR (RD)     double modular redundancy
//	F0           assign 0 to the lost block of x
//	FI           assign the initial guess to the lost block; every solve
//	             here starts from x0 = 0, so FI is F0
//	LI           linear interpolation of the lost block (Eq. 17/19)
//	LSI          least-squares interpolation (Eq. 18/20/21)
//
// plus three extension schemes beyond the paper's set:
//
//	ESR          exact state reconstruction, no rollback (arXiv:2007.04066)
//	LCR          lossy-compressed checkpoint/restart (arXiv:1804.11268)
//	CR-2L        two-level checkpoint/restart, memory then disk (SCR)
//
// CR-M, CR-D, LCR and CR-2L are one type, CR, over one or two checkpoint
// levels.
//
// LI and LSI come in two construction flavors: the prior-work exact
// solvers (dense LU of the diagonal block; QR of the column block) and
// the paper's Section 4 optimization, localized CG/CGLS with a
// configurable tolerance, optionally combined with DVFS power management
// of the non-reconstructing cores (Section 4.2).
//
// Every scheme is instantiated once per rank and invoked bulk-
// synchronously: all ranks call Recover for the same fault, and all ranks
// call AfterIteration with the same iteration count.
package recovery

import (
	"resilience/internal/cluster"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/solver"
	"resilience/internal/vec"
)

// Ctx carries the per-rank context recovery code operates in.
type Ctx struct {
	C    *cluster.Comm
	Op   *solver.LocalOp
	St   *solver.State
	Plat *platform.Platform
}

// Ranks returns the number of ranks in the run.
func (ctx *Ctx) Ranks() int { return ctx.C.Size() }

// phase is an open recovery phase: the power phase it displaced and the
// clock it opened at. It is a value, so bracketing a phase allocates
// nothing, recorder or not.
type phase struct {
	ctx   *Ctx
	kind  obs.SpanKind
	prev  string
	start float64
}

// enter opens a recovery phase of the given kind: subsequent energy is
// charged to the power phase named after the span kind (reconstruct,
// checkpoint, rollback — the keys of EnergyByPhase). Close it with leave,
// typically as defer ctx.enter(kind).leave().
func (ctx *Ctx) enter(kind obs.SpanKind) phase {
	return phase{ctx: ctx, kind: kind, prev: ctx.C.SetPhase(kind.String()), start: ctx.C.Clock()}
}

// leave restores the displaced power phase and records the phase's span
// when a recorder is attached.
func (p phase) leave() {
	c := p.ctx.C
	c.SetPhase(p.prev)
	if o := c.Observer(); o != nil {
		o.Span(p.kind, p.start, c.Clock()-p.start)
	}
}

// Scheme is one recovery mechanism, instantiated per rank.
type Scheme interface {
	// Recover repairs the solver state after fault f. It is called on
	// every rank collectively. restart reports whether CG must rebuild
	// R and P from X.
	Recover(ctx *Ctx, f fault.Fault) (restart bool, err error)
	// AfterIteration runs after every completed iteration (checkpoint /
	// shadow hooks). completedIters counts executed iterations.
	AfterIteration(ctx *Ctx, completedIters int) error
	// Redundancy is the hardware multiplier the scheme needs: 1 for all
	// schemes except modular redundancy (2 for DMR, 3 for TMR). Reports
	// scale power and energy by it.
	Redundancy() int
}

// Base provides no-op defaults for optional Scheme methods.
type Base struct{}

// AfterIteration implements Scheme with a no-op.
func (Base) AfterIteration(*Ctx, int) error { return nil }

// Redundancy implements Scheme: no redundant hardware.
func (Base) Redundancy() int { return 1 }

// F0 fills the lost block with zeros: the cheapest construction, the
// slowest convergence (Section 3.2: T_const = 0, large T_extra). It also
// serves FI, whose initial guess is always zero here.
type F0 struct{ Base }

// Recover implements Scheme.
func (F0) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	if ctx.C.Rank() == f.Rank {
		defer ctx.enter(obs.SpanReconstruct).leave()
		vec.Zero(ctx.St.X)
		ctx.C.Compute(int64(len(ctx.St.X))) // a memset-scale pass
	}
	return true, nil
}

// parkOthers is the shared DVFS/idle pattern of Section 4.2: every rank
// except the reconstructing one optionally drops to the lowest frequency,
// waits at idle power for the reconstruction to finish (the trailing
// barrier), then restores its frequency. The reconstructing rank calls
// work() at full speed and joins the barrier last.
func parkOthers(ctx *Ctx, failedRank int, dvfs bool, work func()) {
	c := ctx.C
	if c.Rank() == failedRank {
		work()
		c.Barrier()
		return
	}
	prevIdle := c.SetWaitIdle(true)
	prevFreq := c.Freq()
	if dvfs {
		c.SetFreq(ctx.Plat.FreqMin)
	}
	c.Barrier()
	if dvfs {
		c.SetFreq(prevFreq)
	}
	c.SetWaitIdle(prevIdle)
}
