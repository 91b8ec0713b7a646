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
	ckptIter     int       // the iteration of the checkpoint held at that moment
	hasCkpt      bool      // CR.hasCkpt / CR2L.hasMem at that moment
	rollbacks    int
	diskRestores int // CR2L only
}

// runCRFaults converges CG partway on two ranks with the given scheme
// factory and fires the listed faults at their iterations (all ranks
// recover collectively, the struck rank's block is zeroed first).
func runCRFaults(t *testing.T, mk func(x0 []float64) Scheme, faults []fault.Fault, x0Val float64) crSnapshot {
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
		x0 := make([]float64, part.Size(c.Rank()))
		for i := range x0 {
			x0[i] = x0Val
		}
		scheme := mk(x0)
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
					switch s := scheme.(type) {
					case *CR:
						snap.ckptIter = s.ckptIter
						snap.hasCkpt = s.hasCkpt
						snap.rollbacks = s.Rollbacks
					case *CR2L:
						snap.ckptIter = s.memIter
						snap.hasCkpt = s.hasMem
						snap.rollbacks = s.Rollbacks
						snap.diskRestores = s.DiskRestores
					}
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

// TestCRStaleCheckpointAfterSWO is the two-fault regression for the
// stale-restore bug: an SWO destroys the memory checkpoints (buddy copies
// included), so the *next* non-SWO fault must roll back to the initial
// guess — not to the destroyed copy the scheme wrote before the outage.
func TestCRStaleCheckpointAfterSWO(t *testing.T) {
	const x0Val = 3.5
	faults := []fault.Fault{
		{Class: fault.SWO, Rank: 0, Iter: 12},
		{Class: fault.SNF, Rank: 1, Iter: 13},
	}
	snap := runCRFaults(t, func(x0 []float64) Scheme {
		return &CR{
			Store:  checkpoint.MemStore{Plat: platform.Default()},
			Policy: checkpoint.FixedPolicy(5), // checkpoints at iters 5 and 10
			X0:     x0,
		}
	}, faults, x0Val)
	for i, v := range snap.x {
		if v != x0Val {
			t.Fatalf("post-SWO rollback target: x[%d] = %g, want initial guess %g (restored the destroyed checkpoint)", i, v, x0Val)
		}
	}
	if snap.hasCkpt {
		t.Error("hasCkpt still set after an SWO destroyed the memory checkpoint")
	}
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
	const x0Val = 2.25
	faults := []fault.Fault{
		{Class: fault.SWO, Rank: 0, Iter: 12},
		{Class: fault.SNF, Rank: 1, Iter: 13},
	}
	snap := runCRFaults(t, func(x0 []float64) Scheme {
		plat := platform.Default()
		return &CR2L{
			Mem:        checkpoint.MemStore{Plat: plat},
			Disk:       checkpoint.DiskStore{Plat: plat},
			MemPolicy:  checkpoint.FixedPolicy(5),
			DiskPolicy: checkpoint.FixedPolicy(1000), // no disk copy before the faults
			X0:         x0,
		}
	}, faults, x0Val)
	for i, v := range snap.x {
		if v != x0Val {
			t.Fatalf("post-SWO CR-2L rollback target: x[%d] = %g, want initial guess %g", i, v, x0Val)
		}
	}
	if snap.hasCkpt {
		t.Error("hasMem still set after an SWO with no disk checkpoint")
	}
	if snap.diskRestores != 0 {
		t.Errorf("DiskRestores = %d, want 0", snap.diskRestores)
	}
}

// TestCRFailedRestoreChargesNoReadTime: when no surviving checkpoint
// exists, nothing is read, so the rollback must not advance the clock by
// a checkpoint read.
func TestCRFailedRestoreChargesNoReadTime(t *testing.T) {
	mk := func(x0 []float64) Scheme {
		return &CR{
			Store:  checkpoint.MemStore{Plat: platform.Default()},
			Policy: checkpoint.FixedPolicy(5),
			X0:     x0,
		}
	}
	swo := runCRFaults(t, mk, []fault.Fault{{Class: fault.SWO, Rank: 0, Iter: 12}}, 1.0)
	if swo.dur != 0 {
		t.Errorf("failed restore consumed %g virtual seconds, want 0 (no surviving checkpoint to read)", swo.dur)
	}

	// A surviving checkpoint, by contrast, does pay the read.
	snf := runCRFaults(t, mk, []fault.Fault{{Class: fault.SNF, Rank: 0, Iter: 12}}, 1.0)
	if snf.dur <= 0 {
		t.Errorf("surviving-checkpoint restore consumed %g virtual seconds, want > 0", snf.dur)
	}
	if snf.ckptIter != 10 {
		t.Errorf("checkpoint iteration %d, want 10 (policy fires at 5 and 10)", snf.ckptIter)
	}
}
