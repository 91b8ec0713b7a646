package recovery

import (
	"fmt"

	"resilience/internal/checkpoint"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/vec"
)

// CR2L is two-level checkpoint/restart in the style of SCR [Moody et al.
// 2010], an extension beyond the paper motivated by its related-work
// discussion: frequent cheap checkpoints to (buddy) memory plus rare
// expensive checkpoints to the shared disk. Recovery restores from the
// freshest level the fault class left intact — a system-wide outage
// (SWO) wipes memory copies, every other class can use them.
type CR2L struct {
	Base
	Mem        checkpoint.Store
	Disk       checkpoint.Store
	MemPolicy  checkpoint.Policy
	DiskPolicy checkpoint.Policy
	// X0 is this rank's block of the initial guess (zeros when nil).
	X0 []float64

	lastMem      []float64
	lastDisk     []float64
	memIter      int
	diskIter     int
	hasMem       bool
	hasDisk      bool
	MemWrites    int
	DiskWrites   int
	Rollbacks    int
	DiskRestores int
}

func (s *CR2L) ckptBytes(ctx *Ctx) int64 { return int64(8 * ctx.St.Part.Size(0)) }

// AfterIteration implements Scheme: write whichever levels are due. When
// both are due in the same iteration only the disk write is charged in
// full; the memory copy is subsumed by it.
func (s *CR2L) AfterIteration(ctx *Ctx, completedIters int) error {
	memDue := s.MemPolicy.Due(completedIters)
	diskDue := s.DiskPolicy.Due(completedIters)
	if !memDue && !diskDue {
		return nil
	}
	c := ctx.C
	defer ctx.span(obs.SpanCheckpoint)()
	prev := c.SetPhase(PhaseCheckpoint)
	defer c.SetPhase(prev)
	bytes := s.ckptBytes(ctx)
	if diskDue {
		dur := s.Disk.WriteTime(bytes, ctx.Ranks())
		c.ElapseIdle(dur)
		if s.lastDisk == nil {
			s.lastDisk = make([]float64, len(ctx.St.X))
		}
		copy(s.lastDisk, ctx.St.X)
		s.hasDisk = true
		s.diskIter = completedIters
		s.DiskWrites++
	}
	if memDue {
		if !diskDue {
			c.ElapseActive(s.Mem.WriteTime(bytes, ctx.Ranks()))
		}
		if s.lastMem == nil {
			s.lastMem = make([]float64, len(ctx.St.X))
		}
		copy(s.lastMem, ctx.St.X)
		s.hasMem = true
		s.memIter = completedIters
		s.MemWrites++
	}
	return nil
}

// Recover implements Scheme.
func (s *CR2L) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	c := ctx.C
	defer ctx.span(obs.SpanRollback)()
	prev := c.SetPhase(PhaseRollback)
	defer c.SetPhase(prev)
	bytes := s.ckptBytes(ctx)
	s.Rollbacks++

	if f.Class == fault.SWO {
		// The outage voids the memory level whether or not a disk copy
		// exists to fall back on; a later fault must not restore from the
		// destroyed buddy copy.
		s.hasMem = false
		s.memIter = 0
	}
	switch {
	case s.hasMem && (!s.hasDisk || s.memIter >= s.diskIter):
		c.ElapseActive(s.Mem.ReadTime(bytes, ctx.Ranks()))
		copy(ctx.St.X, s.lastMem)
	case s.hasDisk:
		c.ElapseIdle(s.Disk.ReadTime(bytes, ctx.Ranks()))
		copy(ctx.St.X, s.lastDisk)
		s.DiskRestores++
	default:
		if s.X0 != nil {
			copy(ctx.St.X, s.X0)
		} else {
			vec.Zero(ctx.St.X)
		}
	}
	return true, nil
}

// Validate reports configuration errors.
func (s *CR2L) Validate() error {
	if s.Mem == nil || s.Disk == nil {
		return fmt.Errorf("recovery: CR2L needs both stores")
	}
	if s.MemPolicy.EveryIters < 1 || s.DiskPolicy.EveryIters < 1 {
		return fmt.Errorf("recovery: CR2L needs both policies")
	}
	if s.DiskPolicy.EveryIters < s.MemPolicy.EveryIters {
		return fmt.Errorf("recovery: CR2L disk interval %d below memory interval %d",
			s.DiskPolicy.EveryIters, s.MemPolicy.EveryIters)
	}
	return nil
}
