package recovery

import (
	"resilience/internal/fault"
	"resilience/internal/obs"
)

// LCR operating point, calibrated to the Tao et al. [arXiv:1804.11268]
// SZ measurements on smooth scientific data: a pointwise relative error
// bound of 1e-4 buys roughly an 8x compression ratio.
const (
	// DefaultLossyRatio is the compression ratio assumed when a
	// SchemeSpec leaves it unset.
	DefaultLossyRatio = 8.0
	// DefaultLossyErrBound is the compressor's pointwise relative error
	// bound LCR applies on every restore. It is the operating point, not
	// a setting: DefaultLossyRatio is calibrated at it.
	DefaultLossyErrBound = 1e-4
)

// LCR is lossy-compressed checkpoint/restart [Tao et al.,
// arXiv:1804.11268]: plain CR writing through a checkpoint.Lossy store,
// so each checkpoint moves Ratio-times less data — but a restore hands
// back an iterate carrying the compressor's pointwise error bound
// instead of the exact one. The fidelity price is applied on restore as
// a deterministic error-bound-sized perturbation of the rolled-back
// iterate on every rank; CG then spends extra iterations re-converging
// from the degraded restart point. That is the write-cost vs
// iteration-penalty trade the T_res/E_res model prices: cheaper
// T_checkpoint, larger effective T_lost per failure.
type LCR struct {
	CR
}

// Recover implements Scheme: the usual CR rollback, then the
// decompression error. Only an actual checkpoint reload is lossy — a
// fallback to the initial guess (nothing written yet) restores exact
// data and is not perturbed. The perturbation alternates sign by global
// index at exactly the error bound — the compressor's worst case, so the
// modeled iteration penalty is an upper bound — and is idempotent in the
// sense that re-restoring the same checkpoint reproduces the same
// degraded iterate bit-for-bit.
func (s *LCR) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	restart, err := s.CR.Recover(ctx, f)
	if err != nil || !s.hasCkpt {
		return restart, err
	}
	c := ctx.C
	defer ctx.span(obs.SpanRollback)()
	prev := c.SetPhase(PhaseRollback)
	lo, _ := ctx.St.Part.Range(c.Rank())
	x := ctx.St.X
	for i := range x {
		if (lo+i)&1 == 0 {
			x[i] *= 1 + DefaultLossyErrBound
		} else {
			x[i] *= 1 - DefaultLossyErrBound
		}
	}
	c.Compute(int64(len(x)))
	c.SetPhase(prev)
	return restart, nil
}
