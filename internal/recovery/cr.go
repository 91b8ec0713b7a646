package recovery

import (
	"resilience/internal/checkpoint"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/vec"
)

// LCR operating point, calibrated to the Tao et al. [arXiv:1804.11268]
// SZ measurements on smooth scientific data: a pointwise relative error
// bound of 1e-4 buys roughly an 8x compression ratio.
const (
	// DefaultLossyRatio is the compression ratio of LCR's
	// checkpoint.Lossy store. It is the operating point, not a setting.
	DefaultLossyRatio = 8.0
	// DefaultLossyErrBound is the compressor's pointwise relative error
	// bound applied on every restore from a checkpoint.Lossy level.
	// DefaultLossyRatio is calibrated at it.
	DefaultLossyErrBound = 1e-4
)

// Level is one checkpoint target of CR: a store, the policy that says
// when it is written, and the copy of this rank's block it holds.
type Level struct {
	Store  checkpoint.Store
	Policy checkpoint.Policy

	saved []float64
	// iter is the iteration the held copy was taken at; zero means the
	// level holds nothing (Policy.Due never fires at iteration 0).
	iter int
	// Writes counts checkpoints this level took; Restores counts the
	// rollbacks it served.
	Writes, Restores int
}

// CR is checkpoint/restart over an ordered list of levels. Each rank
// periodically writes its block of x to every level that is due; on a
// fault every rank rolls back to the freshest surviving copy (or zeros
// when none exists yet) — the classical global restart. CG then
// re-executes the lost iterations, which is exactly the T_lost term of
// Eq. 11.
//
// The paper's CR-M and CR-D are one level, memory or disk. The two
// extensions are the same mechanism again:
//
//   - LCR, lossy-compressed checkpoint/restart [Tao et al.,
//     arXiv:1804.11268], is one level whose store is a checkpoint.Lossy:
//     each checkpoint moves Ratio-times less data, but a restore hands
//     back an iterate carrying the compressor's pointwise error bound, so
//     CG spends extra iterations re-converging — cheaper T_checkpoint,
//     larger effective T_lost per failure.
//   - CR-2L, two-level checkpoint/restart in the style of SCR [Moody et
//     al. 2010], is frequent cheap checkpoints to (buddy) memory then rare
//     expensive ones to the shared disk.
type CR struct {
	Base
	Levels []Level
	// Bytes is each rank's checkpoint payload: the largest block's on
	// every rank, so all clocks advance identically and the injectors at
	// the next iteration boundary agree.
	Bytes int64

	// Rollbacks counts recoveries.
	Rollbacks int
}

// elapse charges a store transfer: at active power when the store keeps
// the CPU busy, at idle power otherwise.
func elapse(ctx *Ctx, store checkpoint.Store, dur float64) {
	if store.CPUBusy() {
		ctx.C.ElapseActive(dur)
	} else {
		ctx.C.ElapseIdle(dur)
	}
}

// AfterIteration implements Scheme: copy the block to every level that is
// due. All levels due together are written in one pass whose time is the
// last due level's write: a deeper level's write subsumes the shallower
// copies. All ranks write concurrently, so disk bandwidth is shared by
// Size() writers.
func (s *CR) AfterIteration(ctx *Ctx, completedIters int) error {
	var last *Level
	for i := range s.Levels {
		lv := &s.Levels[i]
		if !lv.Policy.Due(completedIters) {
			continue
		}
		if lv.saved == nil {
			lv.saved = make([]float64, len(ctx.St.X))
		}
		copy(lv.saved, ctx.St.X)
		lv.iter = completedIters
		lv.Writes++
		last = lv
	}
	if last == nil {
		return nil
	}
	defer ctx.enter(obs.SpanCheckpoint).leave()
	elapse(ctx, last.Store, last.Store.WriteTime(s.Bytes, ctx.Ranks()))
	return nil
}

// Recover implements Scheme: global rollback. A system-wide outage (SWO)
// destroys memory checkpoints — buddy copies included — so it voids every
// memory level: a later fault must not restore from a destroyed copy.
// The freshest surviving level is restored, the shallower one on a tie;
// when none survives the block is zeroed and no read cost is charged,
// since nothing is read.
func (s *CR) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	s.Rollbacks++
	from := s.restore(ctx, f)
	if from == nil {
		return true, nil
	}
	if _, lossy := from.Store.(checkpoint.Lossy); lossy {
		s.decompressionError(ctx)
	}
	return true, nil
}

// restore rolls the block back and returns the level it came from, nil
// when none survived.
func (s *CR) restore(ctx *Ctx, f fault.Fault) *Level {
	defer ctx.enter(obs.SpanRollback).leave()
	var from *Level
	for i := range s.Levels {
		lv := &s.Levels[i]
		if f.Class == fault.SWO && lv.Store.Name() == "memory" {
			lv.iter = 0
		}
		if lv.iter > 0 && (from == nil || lv.iter > from.iter) {
			from = lv
		}
	}
	if from == nil {
		vec.Zero(ctx.St.X)
		return nil
	}
	elapse(ctx, from.Store, from.Store.ReadTime(s.Bytes, ctx.Ranks()))
	copy(ctx.St.X, from.saved)
	from.Restores++
	return from
}

// decompressionError degrades a block restored from a lossy level by the
// compressor's error bound, in a rollback span of its own. The
// perturbation alternates sign by global index at exactly the bound — the
// compressor's worst case, so the modeled iteration penalty is an upper
// bound — and re-restoring the same checkpoint reproduces the same
// degraded iterate bit for bit.
func (s *CR) decompressionError(ctx *Ctx) {
	defer ctx.enter(obs.SpanRollback).leave()
	lo, _ := ctx.St.Part.Range(ctx.C.Rank())
	x := ctx.St.X
	for i := range x {
		if (lo+i)&1 == 0 {
			x[i] *= 1 + DefaultLossyErrBound
		} else {
			x[i] *= 1 - DefaultLossyErrBound
		}
	}
	ctx.C.Compute(int64(len(x)))
}
