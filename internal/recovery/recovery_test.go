package recovery

import (
	"math"
	"testing"

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

// setPayload gives a checkpointing scheme the per-rank payload core
// gives it: the largest block's.
func setPayload(s Scheme, part *sparse.Partition) {
	switch s := s.(type) {
	case *CR:
		s.Bytes = int64(8 * part.Size(0))
	case classRewriter:
		setPayload(s.inner, part)
	}
}

// recoverOnce runs a controlled experiment: converge CG partway, corrupt
// rank F's block of x, run the scheme's Recover collectively, and return
// the reconstruction error ||x_rec - x_mid|| / ||x_mid|| on the failed
// block, where x_mid is the pre-fault iterate.
func recoverOnce(t *testing.T, makeScheme func() Scheme, a *sparse.CSR, ranks, failRank, midIters int) (reconErr float64, meter *power.Meter, span float64) {
	t.Helper()
	b, _ := matgen.RHS(a)
	part := sparse.NewPartition(a.Rows, ranks)
	plat := platform.Default()
	meter = power.NewMeter(true)

	errs := make([]float64, ranks)
	maxClock, err := cluster.Run(ranks, plat, meter, func(c *cluster.Comm) error {
		var preFault []float64
		scheme := makeScheme()
		setPayload(scheme, part)
		step := 0
		mon := &hookMonitor{
			before: func(it *solver.Iter) (bool, error) {
				step = it.K
				if it.K != midIters {
					return false, nil
				}
				// Snapshot, corrupt, recover.
				preFault = append([]float64(nil), it.State.X...)
				if c.Rank() == failRank {
					vec.Zero(it.State.X)
				}
				ctx := &Ctx{C: c, Op: it.Op, St: it.State, Plat: plat}
				restart, err := scheme.Recover(ctx, fault.Fault{Class: fault.SNF, Rank: failRank, Iter: it.K})
				if err != nil {
					return false, err
				}
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
		_ = step
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return errs[failRank], meter, maxClock
}

type hookMonitor struct {
	before func(*solver.Iter) (bool, error)
	after  func(*solver.Iter) error
}

func (m *hookMonitor) BeforeIteration(it *solver.Iter) (bool, error) { return m.before(it) }
func (m *hookMonitor) AfterIteration(it *solver.Iter) error          { return m.after(it) }

func testMatrix() *sparse.CSR {
	return matgen.BandedSPD(matgen.BandedOpts{N: 160, NNZPerRow: 7, Kappa: 200, Seed: 5})
}

func TestReconstructionAccuracyOrdering(t *testing.T) {
	a := testMatrix()
	err := map[string]float64{}
	for name, mk := range map[string]func() Scheme{
		"F0":      func() Scheme { return &F0{} },
		"LI":      func() Scheme { return &LI{Construct: ConstructCG, LocalTol: 1e-8} },
		"LI(LU)":  func() Scheme { return &LI{Construct: ConstructExact} },
		"LSI":     func() Scheme { return &LSI{Construct: ConstructCG, LocalTol: 1e-8} },
		"LSI(QR)": func() Scheme { return &LSI{Construct: ConstructExact} },
	} {
		e, _, _ := recoverOnce(t, mk, a, 4, 2, 12)
		err[name] = e
	}
	// F0 zeroes the block: error exactly 1 relative to the lost data.
	if math.Abs(err["F0"]-1) > 1e-9 {
		t.Errorf("F0 error %g want 1", err["F0"])
	}
	// Interpolating schemes must beat F0 substantially.
	for _, s := range []string{"LI", "LI(LU)", "LSI", "LSI(QR)"} {
		if err[s] >= 0.5*err["F0"] {
			t.Errorf("%s error %g does not beat F0 %g", s, err[s], err["F0"])
		}
	}
	// CG-based constructions approximate their exact counterparts.
	if err["LI"] > 10*err["LI(LU)"]+1e-6 {
		t.Errorf("LI(CG) error %g vs LI(LU) %g", err["LI"], err["LI(LU)"])
	}
	// LSI uses global information and must be at least as accurate as LI
	// here (the paper's ordering).
	if err["LSI(QR)"] > err["LI(LU)"]*1.5+1e-9 {
		t.Errorf("LSI(QR) %g vs LI(LU) %g", err["LSI(QR)"], err["LI(LU)"])
	}
}

func TestCRRollback(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme { return crM(5) }
	e, meter, _ := recoverOnce(t, mk, a, 4, 1, 12)
	// Rollback restores the iterate from iteration 10 (last multiple of
	// 5): close to but not equal to iteration 12's state.
	if e == 0 {
		t.Error("CR rollback should differ from the lost state")
	}
	if e > 1 {
		t.Errorf("CR rollback error %g larger than F0's", e)
	}
	if meter.EnergyByPhase()[obs.SpanCheckpoint.String()] <= 0 {
		t.Error("checkpoint energy not recorded")
	}
	if meter.EnergyByPhase()[obs.SpanRollback.String()] <= 0 {
		t.Error("rollback energy not recorded")
	}
}

// TestCRWithoutCheckpointFallsBackToX0: with nothing written yet the
// rollback restores x0 = 0, the one initial guess: the same error as F0.
func TestCRWithoutCheckpointFallsBackToX0(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme { return crM(1000) } // never due before the fault
	e, _, _ := recoverOnce(t, mk, a, 4, 1, 12)
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("CR without checkpoint error %g want 1", e)
	}
}

func TestRDExactRecovery(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme { return &RD{} }
	e, _, _ := recoverOnce(t, mk, a, 4, 1, 12)
	if e > 1e-12 {
		t.Errorf("RD must restore exactly, error %g", e)
	}
}

func TestRedundancyDegrees(t *testing.T) {
	if (&RD{}).Redundancy() != 2 {
		t.Error("default RD degree")
	}
	if (&RD{Replicas: 3}).Redundancy() != 3 {
		t.Error("TMR degree")
	}
	if (&F0{}).Redundancy() != 1 {
		t.Error("base redundancy")
	}
}

// TestDVFSParkingReducesReconstructionEnergy compares the reconstruction
// phase energy with and without DVFS on the same fault.
func TestDVFSParkingReducesReconstructionEnergy(t *testing.T) {
	// A larger block makes the reconstruction long enough to amortize the
	// frequency transitions.
	a := matgen.BandedSPD(matgen.BandedOpts{N: 800, NNZPerRow: 9, Kappa: 3000, Seed: 6})
	energy := map[bool]float64{}
	for _, dvfs := range []bool{false, true} {
		mk := func() Scheme { return &LI{Construct: ConstructExact, DVFS: dvfs} }
		_, meter, _ := recoverOnce(t, mk, a, 4, 1, 10)
		energy[dvfs] = meter.EnergyByPhase()[obs.SpanReconstruct.String()]
	}
	if energy[true] >= energy[false] {
		t.Errorf("DVFS reconstruction energy %g not below %g", energy[true], energy[false])
	}
}

func TestConstructionString(t *testing.T) {
	if ConstructCG.String() != "cg" || ConstructExact.String() != "exact" {
		t.Error("Construction.String")
	}
}

// TestLIErrorTracksConvergence: LI substitutes the neighbors' *current*
// iterates into the exact relation, so its reconstruction error scales
// with how converged the run is — faults early in the solve reconstruct
// worse than late ones. This is the mechanism behind the paper's
// observation that reconstruction accuracy depends on the workload.
func TestLIErrorTracksConvergence(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme { return &LI{Construct: ConstructExact} }
	early, _, _ := recoverOnce(t, mk, a, 4, 1, 3)
	late, _, _ := recoverOnce(t, mk, a, 4, 1, 40)
	if late >= early {
		t.Errorf("late-fault LI error %g not below early-fault %g", late, early)
	}
}

// TestLSIWithScatteredMatrix exercises the least-squares path on an
// irregular (scattered) matrix, where the column block spreads over many
// rows.
func TestLSIWithScatteredMatrix(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 120, NNZPerRow: 7, Kappa: 100, Scatter: 0.6, Seed: 9})
	for name, mk := range map[string]func() Scheme{
		"LSI(QR)": func() Scheme { return &LSI{Construct: ConstructExact} },
		"LSI(CG)": func() Scheme { return &LSI{Construct: ConstructCG, LocalTol: 1e-10} },
	} {
		e, _, _ := recoverOnce(t, mk, a, 4, 2, 15)
		if e >= 1 {
			t.Errorf("%s error %g not below F0's 1.0 on scattered matrix", name, e)
		}
	}
}

// TestRecoverySchemesLeaveOthersIntact: only the failed rank's block may
// change during forward recovery.
func TestRecoverySchemesLeaveOthersIntact(t *testing.T) {
	a := testMatrix()
	b, _ := matgen.RHS(a)
	part := sparse.NewPartition(a.Rows, 4)
	plat := platform.Default()
	meter := power.NewMeter(false)
	_, err := cluster.Run(4, plat, meter, func(c *cluster.Comm) error {
		scheme := &LI{Construct: ConstructCG, LocalTol: 1e-8}
		fired := false
		mon := &hookMonitor{
			before: func(it *solver.Iter) (bool, error) {
				if fired || it.K != 10 {
					return false, nil
				}
				fired = true
				snapshot := append([]float64(nil), it.State.X...)
				if c.Rank() == 2 {
					vec.Zero(it.State.X)
				}
				ctx := &Ctx{C: c, Op: it.Op, St: it.State, Plat: plat}
				restart, err := scheme.Recover(ctx, fault.Fault{Class: fault.SNF, Rank: 2, Iter: it.K})
				if err != nil {
					return false, err
				}
				if c.Rank() != 2 {
					for i := range snapshot {
						if it.State.X[i] != snapshot[i] {
							t.Errorf("rank %d block changed during recovery", c.Rank())
							break
						}
					}
				}
				return restart, nil
			},
			after: func(*solver.Iter) error { return nil },
		}
		_, err := solver.CG(c, a, b, part, solver.Options{Tol: 1e-12, MaxIters: 60, Monitor: mon})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
