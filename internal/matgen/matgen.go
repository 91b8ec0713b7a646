// Package matgen generates synthetic symmetric positive-definite matrices
// that stand in for the SuiteSparse matrices of Table 3 in the paper
// (offline substitution: the collection is not available here).
//
// Each generator controls the three properties the paper's experiments
// actually depend on:
//
//   - size (#rows) and sparsity (#nnz per row),
//   - structure regularity (banded vs scattered off-diagonals), which
//     drives how accurate LI/LSI forward reconstruction can be,
//   - conditioning, which drives the fault-free CG iteration count.
//
// The conditioning knob uses the classical CG bound
// iters ~ (sqrt(kappa)/2) ln(2/eps): given a target iteration count the
// generator back-solves for kappa and shapes the spectrum with Gershgorin
// bounds (diagonal d, off-diagonal row mass s  =>  eigs in [d-s, d+s]).
package matgen

import (
	"fmt"
	"math"
	"math/rand"

	"resilience/internal/sparse"
)

// DefaultTol is the solver tolerance the paper uses (Section 5.2).
const DefaultTol = 1e-12

// cgBoundCalibration is the measured ratio between actual CG iterations
// on BandedSPD matrices (log-uniform Gershgorin spectra) and the
// sqrt(kappa) worst-case bound. Calibrated across the Table 3 catalog at
// tiny and CI scales (observed 0.51-0.65, median ~0.57).
const cgBoundCalibration = 0.57

// ItersToKappa inverts the calibrated CG iteration estimate
// iters ≈ calib * (sqrt(kappa)/2) * ln(2/tol) for kappa.
func ItersToKappa(iters int, tol float64) float64 {
	c := cgBoundCalibration * 0.5 * math.Log(2/tol)
	k := float64(iters) / c
	kappa := k * k
	if kappa < 1.0001 {
		kappa = 1.0001
	}
	return kappa
}

// BandedOpts configures BandedSPD.
type BandedOpts struct {
	N          int     // matrix dimension
	NNZPerRow  int     // approximate stored entries per row (including diagonal)
	Kappa      float64 // target condition number (Gershgorin-shaped)
	Scatter    float64 // fraction of off-diagonals placed at random far columns [0,1]
	Seed       int64   // deterministic generator seed
	RowMass    float64 // off-diagonal absolute row mass (default 2)
	DiagJitter float64 // relative jitter on the diagonal (default 0.01)
}

// BandedSPD builds a symmetric positive-definite matrix with a band (or
// partially scattered) structure and a Gershgorin-shaped spectrum with
// condition number approximately Kappa.
func BandedSPD(o BandedOpts) *sparse.CSR {
	if o.N <= 0 {
		panic(fmt.Sprintf("matgen: invalid N=%d", o.N))
	}
	if o.NNZPerRow < 1 {
		o.NNZPerRow = 3
	}
	if o.Kappa < 1.0001 {
		o.Kappa = 1.0001
	}
	if o.RowMass <= 0 {
		o.RowMass = 2
	}
	if o.DiagJitter <= 0 {
		o.DiagJitter = 0.01
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// Half-bandwidth such that a full band row has ~NNZPerRow entries.
	half := (o.NNZPerRow - 1) / 2
	if half < 1 {
		half = 1
	}
	if half > o.N/3 {
		half = o.N / 3
		if half < 1 {
			half = 1
		}
	}

	coo := sparse.NewCOO(o.N, o.N)
	// Off-diagonals: store upper triangle, mirror symmetric.
	offMass := make([]float64, o.N) // absolute off-diagonal mass per row
	for i := 0; i < o.N; i++ {
		for d := 1; d <= half; d++ {
			j := i + d
			if o.Scatter > 0 && rng.Float64() < o.Scatter {
				// Relocate this entry to a random far column > i.
				j = i + 1 + rng.Intn(o.N-i-1+1)
				if j >= o.N {
					continue
				}
			}
			if j >= o.N || j == i {
				continue
			}
			v := -(0.5 + rng.Float64()) // negative, Laplacian-like
			coo.AddSym(i, j, v)
			offMass[i] += math.Abs(v)
			offMass[j] += math.Abs(v)
		}
	}
	// Normalize the off-diagonal row masses, then choose the diagonal so
	// the Gershgorin discs cover [1, Kappa] with log-uniformly spread
	// centers. A clustered spectrum would let CG converge far faster than
	// the sqrt(kappa) bound; spreading the discs keeps the measured
	// iteration count near the target the catalog requests.
	var maxMass float64
	for _, m := range offMass {
		if m > maxMass {
			maxMass = m
		}
	}
	if maxMass == 0 {
		maxMass = 1
	}
	// Off-diagonal mass budget s: small enough that discs fit in
	// [1, Kappa] with room to spread.
	s := o.RowMass
	if lim := (o.Kappa - 1) / 3; s > lim && lim > 0 {
		s = lim
	}
	scale := s / maxMass
	for k := range coo.V {
		coo.V[k] *= scale
	}
	lnK := math.Log(o.Kappa)
	for i := 0; i < o.N; i++ {
		r := offMass[i] * scale
		low := 1 + r
		high := o.Kappa - r
		var d float64
		if high <= low {
			// Very small kappa: fall back to the clustered placement
			// d = s*(kappa+1)/(kappa-1) (fast convergence is fine there).
			d = s * (o.Kappa + 1) / (o.Kappa - 1)
			if d < low {
				d = low
			}
		} else {
			// Log-uniform disc centers over [low, high].
			t := rng.Float64()
			g := (math.Exp(lnK*t) - 1) / (o.Kappa - 1)
			d = low + (high-low)*g
		}
		jitter := 1 + o.DiagJitter*(rng.Float64()-0.5)
		coo.Add(i, i, d*jitter)
	}
	return coo.ToCSR()
}

// Laplacian1D returns the n x n tridiagonal Poisson matrix
// tridiag(-1, 2, -1), a classic SPD test matrix.
func Laplacian1D(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.AddSym(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

// Laplacian2D returns the 5-point stencil discretization of the Laplacian
// on a g x g grid (n = g² rows, up to 5 nnz/row) — the paper's "5-point
// stencil" matrix. Each row's entries are emitted in column order
// (i−g, i−1, i, i+1, i+g), straight into CSR.
func Laplacian2D(g int) *sparse.CSR {
	n := g * g
	m := sparse.NewCSR(n, n, n+4*g*(g-1))
	add := func(j int, v float64) {
		m.ColIdx = append(m.ColIdx, j)
		m.Val = append(m.Val, v)
	}
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			i := r*g + c
			if r > 0 {
				add(i-g, -1)
			}
			if c > 0 {
				add(i-1, -1)
			}
			add(i, 4)
			if c+1 < g {
				add(i+1, -1)
			}
			if r+1 < g {
				add(i+g, -1)
			}
			m.RowPtr[i+1] = len(m.Val)
		}
	}
	return m
}

// Laplacian3D returns the 7-point stencil discretization on a g³ grid.
func Laplacian3D(g int) *sparse.CSR {
	n := g * g * g
	coo := sparse.NewCOO(n, n)
	idx := func(x, y, z int) int { return (x*g+y)*g + z }
	for x := 0; x < g; x++ {
		for y := 0; y < g; y++ {
			for z := 0; z < g; z++ {
				i := idx(x, y, z)
				coo.Add(i, i, 6)
				if z+1 < g {
					coo.AddSym(i, idx(x, y, z+1), -1)
				}
				if y+1 < g {
					coo.AddSym(i, idx(x, y+1, z), -1)
				}
				if x+1 < g {
					coo.AddSym(i, idx(x+1, y, z), -1)
				}
			}
		}
	}
	return coo.ToCSR()
}

// RHS builds a right-hand side b = A*x_true for a smooth deterministic
// x_true, so the true solution is known and convergence is measurable.
func RHS(a *sparse.CSR) (b, xTrue []float64) {
	n := a.Rows
	xTrue = make([]float64, n)
	for i := range xTrue {
		t := float64(i) / float64(n)
		xTrue[i] = 1 + math.Sin(2*math.Pi*t) + 0.3*math.Cos(6*math.Pi*t)
	}
	b = make([]float64, n)
	a.MulVec(b, xTrue)
	return b, xTrue
}
