package recovery

import (
	"math"
	"testing"

	"resilience/internal/checkpoint"
	"resilience/internal/cluster"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/solver"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// esrRecover is recoverOnce with a chosen fault class and restart capture:
// converge partway, corrupt rank F, Recover collectively, report the
// reconstruction error on the failed block and whether a restart was
// requested.
func esrRecover(t *testing.T, a *sparse.CSR, ranks, failRank, midIters int, class fault.Class) (reconErr float64, restarted bool) {
	t.Helper()
	b, _ := matgen.RHS(a)
	part := sparse.NewPartition(a.Rows, ranks)
	plat := platform.Default()
	meter := power.NewMeter(false)

	errs := make([]float64, ranks)
	restarts := make([]bool, ranks)
	_, err := cluster.Run(ranks, plat, meter, func(c *cluster.Comm) error {
		scheme := &ESR{}
		mon := &hookMonitor{
			before: func(it *solver.Iter) (bool, error) {
				if it.K != midIters {
					return false, nil
				}
				preFault := append([]float64(nil), it.State.X...)
				if c.Rank() == failRank {
					vec.Zero(it.State.X)
				}
				ctx := &Ctx{C: c, Op: it.Op, St: it.State, Plat: plat}
				restart, err := scheme.Recover(ctx, fault.Fault{Class: class, Rank: failRank, Iter: it.K})
				if err != nil {
					return false, err
				}
				restarts[c.Rank()] = restart
				if c.Rank() == failRank {
					errs[c.Rank()] = vec.Dist2(it.State.X, preFault) /
						math.Max(vec.Nrm2(preFault), 1e-300)
				}
				return restart, nil
			},
			after: func(it *solver.Iter) error {
				ctx := &Ctx{C: c, Op: it.Op, St: it.State, Plat: plat}
				return scheme.AfterIteration(ctx, it.K)
			},
		}
		_, err := solver.CG(c, a, b, part, solver.Options{
			Tol: 1e-12, MaxIters: midIters + 50, Monitor: mon,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return errs[failRank], restarts[failRank]
}

// TestESRExactRecovery: the redundancy persisted at the fault boundary
// restores x and p verbatim and the reconstructed residual is exact, so
// the failed block matches the pre-fault iterate to rounding and no
// restart is requested — the zero-rollback property.
func TestESRExactRecovery(t *testing.T) {
	a := testMatrix()
	e, restarted := esrRecover(t, a, 4, 1, 12, fault.SNF)
	if e > 1e-12 {
		t.Errorf("ESR must restore exactly, error %g", e)
	}
	if restarted {
		t.Error("ESR exact path must not request a restart")
	}
}

// TestESRChargesPersistAndReconstructPhases: the per-iteration redundancy
// writes bill the checkpoint phase and recovery bills the reconstruct
// phase, so E_res attribution sees both sides of the scheme.
func TestESRChargesPersistAndReconstructPhases(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme { return &ESR{} }
	e, meter, _ := recoverOnce(t, mk, a, 4, 1, 12)
	if e > 1e-12 {
		t.Errorf("ESR error %g", e)
	}
	if meter.EnergyByPhase()[obs.SpanCheckpoint.String()] <= 0 {
		t.Error("redundancy-persist energy not recorded under checkpoint phase")
	}
	if meter.EnergyByPhase()[obs.SpanReconstruct.String()] <= 0 {
		t.Error("reconstruction energy not recorded")
	}
}

// TestESRSWOFallsBack: a system-wide outage wipes the buddy redundancy,
// so ESR degrades to the documented abort — a restore of zeros, the
// initial guess, plus a restart (error 1 against the lost block, like F0).
func TestESRSWOFallsBack(t *testing.T) {
	a := testMatrix()
	e, restarted := esrRecover(t, a, 4, 1, 12, fault.SWO)
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("ESR under SWO error %g want 1 (initial-guess fallback)", e)
	}
	if !restarted {
		t.Error("ESR fallback must request a restart")
	}
}

func TestESRIdentity(t *testing.T) {
	s := &ESR{}
	if s.Redundancy() != 1 {
		t.Error("ESR needs no redundant hardware")
	}
}

// TestLCRRollbackPerturbed: LCR restores the last checkpoint like CR but
// the decompressed iterate carries the error bound, so the recovered
// block differs from both the lost state and the exact checkpoint —
// while checkpoint writes are strictly cheaper than uncompressed CR-D.
func TestLCRRollbackPerturbed(t *testing.T) {
	a := testMatrix()
	plat := platform.Default()
	mkLCR := func() Scheme { return lcr(plat, 5) }
	mkCRD := func() Scheme {
		return &CR{Levels: []Level{{Store: checkpoint.DiskStore{Plat: plat}, Policy: checkpoint.FixedPolicy(5)}}}
	}
	eLCR, mLCR, _ := recoverOnce(t, mkLCR, a, 4, 1, 12)
	eCRD, mCRD, _ := recoverOnce(t, mkCRD, a, 4, 1, 12)
	if eLCR == 0 || eLCR > 1 {
		t.Errorf("LCR rollback error %g out of (0,1]", eLCR)
	}
	if eLCR == eCRD {
		t.Error("lossy restore must differ from the exact rollback")
	}
	if mLCR.EnergyByPhase()[obs.SpanCheckpoint.String()] >= mCRD.EnergyByPhase()[obs.SpanCheckpoint.String()] {
		t.Errorf("compressed checkpoints %g J not cheaper than exact %g J",
			mLCR.EnergyByPhase()[obs.SpanCheckpoint.String()], mCRD.EnergyByPhase()[obs.SpanCheckpoint.String()])
	}
	if mLCR.EnergyByPhase()[obs.SpanRollback.String()] <= 0 {
		t.Error("rollback energy not recorded")
	}
}

// TestLCRWithoutCheckpointIsExactFallback: nothing written yet means the
// zero initial guess comes back exactly — the decompression error only
// applies to data that went through the compressor.
func TestLCRWithoutCheckpointIsExactFallback(t *testing.T) {
	a := testMatrix()
	plat := platform.Default()
	mk := func() Scheme { return lcr(plat, 1000) }
	e, _, _ := recoverOnce(t, mk, a, 4, 1, 12)
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("LCR without checkpoint error %g want 1", e)
	}
}

// lcr is LCR's one level: the shared disk behind the compressor, written
// every `every` iterations.
func lcr(plat *platform.Platform, every int) *CR {
	return &CR{Levels: []Level{{
		Store:  checkpoint.Lossy{Inner: checkpoint.DiskStore{Plat: plat}, Ratio: DefaultLossyRatio},
		Policy: checkpoint.FixedPolicy(every),
	}}}
}

func TestLCRIdentity(t *testing.T) {
	s := lcr(platform.Default(), 5)
	if s.Redundancy() != 1 {
		t.Error("LCR needs no redundant hardware")
	}
	if name := s.Levels[0].Store.Name(); name != "lossy-disk" {
		t.Errorf("store %q", name)
	}
}
