package recovery

import (
	"resilience/internal/checkpoint"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/vec"
)

// CR is checkpoint/restart. Each rank periodically writes its block of x
// to the store; on a fault every rank rolls back to the last checkpoint
// (or the initial guess when none exists yet) — the classical global
// restart. CG then re-executes the lost iterations, which is exactly the
// T_lost term of Eq. 11.
type CR struct {
	Base
	Store  checkpoint.Store
	Policy checkpoint.Policy
	// X0 is this rank's block of the initial guess (zeros when nil).
	X0 []float64

	last     []float64
	hasCkpt  bool
	ckptIter int
	// Writes counts checkpoints taken by this rank.
	Writes int
	// Rollbacks counts recoveries.
	Rollbacks int
}

// ckptBytes returns the per-rank checkpoint payload. The maximum block
// size is used on every rank so all clocks advance identically — the
// iteration boundary that follows must see equal clocks on all ranks for
// the injectors to agree.
func (s *CR) ckptBytes(ctx *Ctx) int64 { return int64(8 * ctx.St.Part.Size(0)) }

// AfterIteration implements Scheme: write a checkpoint when due. All
// ranks write concurrently, so disk bandwidth is shared by Size() writers.
func (s *CR) AfterIteration(ctx *Ctx, completedIters int) error {
	if !s.Policy.Due(completedIters) {
		return nil
	}
	c := ctx.C
	defer ctx.span(obs.SpanCheckpoint)()
	prev := c.SetPhase(PhaseCheckpoint)
	dur := s.Store.WriteTime(s.ckptBytes(ctx), ctx.Ranks())
	if s.Store.CPUBusy() {
		c.ElapseActive(dur)
	} else {
		c.ElapseIdle(dur)
	}
	c.SetPhase(prev)

	if s.last == nil {
		s.last = make([]float64, len(ctx.St.X))
	}
	copy(s.last, ctx.St.X)
	s.hasCkpt = true
	s.ckptIter = completedIters
	s.Writes++
	return nil
}

// Recover implements Scheme: global rollback. A system-wide outage (SWO)
// destroys memory checkpoints — buddy copies included — so CR-M falls
// back to the initial guess for that class and the destroyed checkpoint
// is forgotten: a later fault must not restore from it. No read cost is
// charged when nothing survives to be read.
func (s *CR) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	c := ctx.C
	defer ctx.span(obs.SpanRollback)()
	prev := c.SetPhase(PhaseRollback)
	if f.Class == fault.SWO && s.Store.Name() == "memory" {
		s.hasCkpt = false
		s.ckptIter = 0
	}
	if s.hasCkpt {
		dur := s.Store.ReadTime(s.ckptBytes(ctx), ctx.Ranks())
		if s.Store.CPUBusy() {
			c.ElapseActive(dur)
		} else {
			c.ElapseIdle(dur)
		}
		copy(ctx.St.X, s.last)
	} else if s.X0 != nil {
		copy(ctx.St.X, s.X0)
	} else {
		vec.Zero(ctx.St.X)
	}
	c.SetPhase(prev)
	s.Rollbacks++
	return true, nil
}
