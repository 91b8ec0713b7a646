package recovery

import (
	"testing"

	"resilience/internal/checkpoint"
	"resilience/internal/cluster"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/solver"
	"resilience/internal/sparse"
)

// crSnapshot captures rank 0's view right after the last fault's
// recovery — later iterations resume checkpointing, so post-run state
// cannot pin the rollback behavior.
type crSnapshot struct {
	x            []float64 // the post-recovery block
	dur          float64   // virtual seconds the last recovery consumed
	ckptIter     int       // the iteration of the first level's copy at that moment (0: none)
	rollbacks    int
	diskRestores int // restores the last level served (CR-2L's disk)
}

// runCRFaults converges CG partway on two ranks, each with its own copy of
// proto's levels, and fires the listed faults at their iterations (all
// ranks recover collectively, the struck rank's block is zeroed first).
func runCRFaults(t *testing.T, proto *CR, faults []fault.Fault) crSnapshot {
	t.Helper()
	a := testMatrix()
	b, _ := matgen.RHS(a)
	const ranks = 2
	part := sparse.NewPartition(a.Rows, ranks)
	plat := platform.Default()
	meter := power.NewMeter(false)

	snaps := make([]crSnapshot, ranks)
	lastIter := 0
	for _, f := range faults {
		if f.Iter > lastIter {
			lastIter = f.Iter
		}
	}
	_, err := cluster.Run(ranks, plat, meter, func(c *cluster.Comm) error {
		scheme := &CR{Levels: append([]Level(nil), proto.Levels...)}
		setPayload(scheme, part)
		mon := &hookMonitor{
			before: func(it *solver.Iter) (bool, error) {
				restart := false
				for _, f := range faults {
					if f.Iter != it.K {
						continue
					}
					if c.Rank() == f.Rank {
						for i := range it.State.X {
							it.State.X[i] = 0
						}
					}
					ctx := &Ctx{C: c, Op: it.Op, St: it.State, Plat: plat}
					start := c.Clock()
					r, err := scheme.Recover(ctx, f)
					if err != nil {
						return false, err
					}
					restart = restart || r
					if it.K != lastIter {
						continue
					}
					snap := &snaps[c.Rank()]
					snap.x = append([]float64(nil), it.State.X...)
					snap.dur = c.Clock() - start
					snap.ckptIter = scheme.Levels[0].iter
					snap.rollbacks = scheme.Rollbacks
					snap.diskRestores = scheme.Levels[len(scheme.Levels)-1].Restores
				}
				return restart, nil
			},
			after: func(it *solver.Iter) error {
				ctx := &Ctx{C: c, Op: it.Op, St: it.State, Plat: plat}
				return scheme.AfterIteration(ctx, it.K)
			},
		}
		_, err := solver.CG(c, a, b, part, solver.Options{
			Tol: 1e-12, MaxIters: lastIter + 20, Monitor: mon,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps[0]
}

// crM is CR-M: one memory level, written every `every` iterations.
func crM(every int) *CR {
	return &CR{Levels: []Level{{Store: checkpoint.MemStore{Plat: platform.Default()}, Policy: checkpoint.FixedPolicy(every)}}}
}

// mk2L is CR-2L's two levels: memory every memEvery iterations, then disk
// every diskEvery.
func mk2L(memEvery, diskEvery int) *CR {
	plat := platform.Default()
	return &CR{Levels: []Level{
		{Store: checkpoint.MemStore{Plat: plat}, Policy: checkpoint.FixedPolicy(memEvery)},
		{Store: checkpoint.DiskStore{Plat: plat}, Policy: checkpoint.FixedPolicy(diskEvery)},
	}}
}

// requireZeros fails unless the rolled-back block is all zeros — the
// fallback when no checkpoint survives (every solve starts from x0 = 0).
func requireZeros(t *testing.T, what string, x []float64) {
	t.Helper()
	for i, v := range x {
		if v != 0 {
			t.Fatalf("%s: x[%d] = %g, want 0 (restored the destroyed checkpoint)", what, i, v)
		}
	}
}

// TestCRStaleCheckpointAfterSWO is the two-fault regression for the
// stale-restore bug: an SWO destroys the memory checkpoints (buddy copies
// included), so the *next* non-SWO fault must roll back to zeros — not to
// the destroyed copy the scheme wrote before the outage. The snapshot is
// rank 0's, which the second fault does not strike, so only a rollback
// can zero it.
func TestCRStaleCheckpointAfterSWO(t *testing.T) {
	faults := []fault.Fault{
		{Class: fault.SWO, Rank: 0, Iter: 12},
		{Class: fault.SNF, Rank: 1, Iter: 13},
	}
	snap := runCRFaults(t, crM(5), faults) // checkpoints at iters 5 and 10
	requireZeros(t, "post-SWO rollback target", snap.x)
	if snap.ckptIter != 0 {
		t.Errorf("checkpoint iteration %d after a destroyed checkpoint, want 0", snap.ckptIter)
	}
	if snap.rollbacks != 2 {
		t.Errorf("Rollbacks = %d, want 2", snap.rollbacks)
	}
}

// TestCR2LStaleMemoryAfterSWO pins the same pattern for the two-level
// scheme when no disk checkpoint exists yet: the outage voids the memory
// level even without a disk restore to fall back on.
func TestCR2LStaleMemoryAfterSWO(t *testing.T) {
	faults := []fault.Fault{
		{Class: fault.SWO, Rank: 0, Iter: 12},
		{Class: fault.SNF, Rank: 1, Iter: 13},
	}
	snap := runCRFaults(t, mk2L(5, 1000), faults) // no disk copy before the faults
	requireZeros(t, "post-SWO CR-2L rollback target", snap.x)
	if snap.ckptIter != 0 {
		t.Errorf("memory level still holds iteration %d after an SWO with no disk checkpoint", snap.ckptIter)
	}
	if snap.diskRestores != 0 {
		t.Errorf("disk restores = %d, want 0", snap.diskRestores)
	}
}

// TestCRFailedRestoreChargesNoReadTime: when no surviving checkpoint
// exists, nothing is read, so the rollback must not advance the clock by
// a checkpoint read.
func TestCRFailedRestoreChargesNoReadTime(t *testing.T) {
	swo := runCRFaults(t, crM(5), []fault.Fault{{Class: fault.SWO, Rank: 0, Iter: 12}})
	if swo.dur != 0 {
		t.Errorf("failed restore consumed %g virtual seconds, want 0 (no surviving checkpoint to read)", swo.dur)
	}

	// A surviving checkpoint, by contrast, does pay the read.
	snf := runCRFaults(t, crM(5), []fault.Fault{{Class: fault.SNF, Rank: 0, Iter: 12}})
	if snf.dur <= 0 {
		t.Errorf("surviving-checkpoint restore consumed %g virtual seconds, want > 0", snf.dur)
	}
	if snf.ckptIter != 10 {
		t.Errorf("checkpoint iteration %d, want 10 (policy fires at 5 and 10)", snf.ckptIter)
	}
}
