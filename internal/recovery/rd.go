package recovery

import (
	"resilience/internal/fault"
	"resilience/internal/obs"
)

// RD is modular redundancy (the paper's DMR, generalized to N-way): a
// full replica of the computation runs on a disjoint set of cores. When a
// fault destroys a rank's state, the exact state is copied back from the
// replica — recovery is immediate and convergence matches the fault-free
// run, at the price of Replicas× power for the entire execution (Eq. 12).
//
// The replica is not re-executed on additional goroutines: because it
// performs the identical computation, its state equals the primary's
// state one shadow-snapshot ago, which RD maintains. Reports multiply
// power and energy by Redundancy(), implementing Eq. 12 exactly.
type RD struct {
	Base
	// Replicas is the modular redundancy degree: 2 for DMR (the paper's
	// RD), 3 for TMR. Zero means 2.
	Replicas int

	shadowX []float64
	shadowR []float64
	shadowP []float64
	shadowQ []float64
	rho     float64
	has     bool
}

// Redundancy implements Scheme.
func (s *RD) Redundancy() int {
	if s.Replicas <= 0 {
		return 2
	}
	return s.Replicas
}

// AfterIteration implements Scheme: track the replica's state. The
// snapshot is free in virtual time — the replica computes it on its own
// cores concurrently with the primary.
func (s *RD) AfterIteration(ctx *Ctx, _ int) error {
	st := ctx.St
	if s.shadowX == nil {
		n := len(st.X)
		s.shadowX = make([]float64, n)
		s.shadowR = make([]float64, n)
		s.shadowP = make([]float64, n)
		s.shadowQ = make([]float64, n)
	}
	copy(s.shadowX, st.X)
	copy(s.shadowR, st.R)
	copy(s.shadowP, st.P)
	copy(s.shadowQ, st.Q)
	s.rho = st.Rho
	s.has = true
	return nil
}

// Recover implements Scheme: copy the exact state back from the replica.
// Only the failed rank pays the transfer; no CG restart is needed because
// the entire Krylov state is intact.
func (s *RD) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	c := ctx.C
	if c.Rank() != f.Rank {
		return false, nil
	}
	defer ctx.enter(obs.SpanReconstruct).leave()
	// One block of each CG vector crosses the network from the replica.
	bytes := int64(8 * 4 * len(ctx.St.X))
	c.ElapseIdle(ctx.Plat.P2PTime(bytes))
	if s.has {
		copy(ctx.St.X, s.shadowX)
		copy(ctx.St.R, s.shadowR)
		copy(ctx.St.P, s.shadowP)
		copy(ctx.St.Q, s.shadowQ)
		ctx.St.Rho = s.rho
	}
	return false, nil
}
