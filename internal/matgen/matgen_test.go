package matgen

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"resilience/internal/dense"
	"resilience/internal/solver"
	"resilience/internal/sparse"
)

func TestLaplacian1DStructure(t *testing.T) {
	a := Laplacian1D(5)
	if a.Rows != 5 || a.NNZ() != 5+2*4 {
		t.Fatalf("shape %v nnz %d", a, a.NNZ())
	}
	if a.At(0, 0) != 2 || a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Error("stencil values wrong")
	}
	if !a.IsSymmetric(0) {
		t.Error("not symmetric")
	}
}

// laplacian2DCOO is the 5-point stencil assembled through a COO and
// sorted into CSR: the oracle for the direct CSR build.
func laplacian2DCOO(g int) *sparse.CSR {
	n := g * g
	coo := sparse.NewCOO(n, n)
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			i := r*g + c
			coo.Add(i, i, 4)
			if c+1 < g {
				coo.AddSym(i, i+1, -1)
			}
			if r+1 < g {
				coo.AddSym(i, i+g, -1)
			}
		}
	}
	return coo.ToCSR()
}

// TestLaplacian2DMatchesCOO: building the stencil straight into CSR gives
// the matrix the COO assembly gives, bit for bit (shape, row pointers,
// column order, values and capacity).
func TestLaplacian2DMatchesCOO(t *testing.T) {
	for g := 1; g <= 16; g++ {
		got, want := Laplacian2D(g), laplacian2DCOO(g)
		if got.Rows != want.Rows || got.Cols != want.Cols ||
			!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
			cap(got.Val) != cap(want.Val) {
			t.Fatalf("g=%d: structure differs:\n got %v %v\nwant %v %v", g, got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
		}
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("g=%d: value %d is %v, want %v", g, k, got.Val[k], want.Val[k])
			}
		}
	}
}

func TestLaplacian2DStructure(t *testing.T) {
	g := 4
	a := Laplacian2D(g)
	if a.Rows != g*g {
		t.Fatalf("rows %d", a.Rows)
	}
	// Interior point has 5 entries, corner 3.
	if a.RowNNZ(g+1) != 5 {
		t.Errorf("interior row nnz %d", a.RowNNZ(g+1))
	}
	if a.RowNNZ(0) != 3 {
		t.Errorf("corner row nnz %d", a.RowNNZ(0))
	}
	if !a.IsSymmetric(0) {
		t.Error("not symmetric")
	}
	// Row sums: interior rows sum to 0 is false here (no boundary
	// elimination); diagonal dominance holds instead.
	lo, _ := a.GershgorinBounds()
	if lo < 0 {
		t.Errorf("Gershgorin lower bound %g < 0", lo)
	}
}

func TestLaplacian3DStructure(t *testing.T) {
	a := Laplacian3D(3)
	if a.Rows != 27 {
		t.Fatalf("rows %d", a.Rows)
	}
	if !a.IsSymmetric(0) {
		t.Error("not symmetric")
	}
	if a.At(13, 13) != 6 { // center point
		t.Errorf("center diagonal %g", a.At(13, 13))
	}
}

// positiveDefinite reports whether the symmetric matrix d is positive
// definite: Gaussian elimination without pivoting meets only positive
// pivots. It overwrites d.
func positiveDefinite(d *dense.Matrix) bool {
	n := d.Rows
	for k := 0; k < n; k++ {
		pivot := d.At(k, k)
		if pivot <= 0 {
			return false
		}
		for i := k + 1; i < n; i++ {
			f := d.At(i, k) / pivot
			for j := k + 1; j < n; j++ {
				d.Set(i, j, d.At(i, j)-f*d.At(k, j))
			}
		}
	}
	return true
}

// TestBandedSPDIsSPD verifies symmetry and positive-definiteness on small
// instances.
func TestBandedSPDIsSPD(t *testing.T) {
	for _, scatter := range []float64{0, 0.3, 0.8} {
		a := BandedSPD(BandedOpts{N: 60, NNZPerRow: 9, Kappa: 100, Scatter: scatter, Seed: 7})
		if !a.IsSymmetric(1e-12) {
			t.Fatalf("scatter=%g: not symmetric", scatter)
		}
		d := dense.NewMatrix(a.Rows, a.Rows)
		for i := 0; i < a.Rows; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				d.Set(i, j, vals[k])
			}
		}
		if !positiveDefinite(d) {
			t.Fatalf("scatter=%g: not positive definite", scatter)
		}
	}
}

// Property: BandedSPD is deterministic in its seed and SPD-consistent by
// Gershgorin for any options.
func TestQuickBandedSPDGershgorin(t *testing.T) {
	f := func(seed int64) bool {
		o := BandedOpts{N: 40 + int(seed%17+17)%17, NNZPerRow: 5, Kappa: 50, Seed: seed}
		a := BandedSPD(o)
		b := BandedSPD(o)
		if a.NNZ() != b.NNZ() {
			return false
		}
		for k := range a.Val {
			if a.Val[k] != b.Val[k] {
				return false
			}
		}
		lo, _ := a.GershgorinBounds()
		return lo > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBandedSPDTargetsKappa(t *testing.T) {
	kappa := 400.0
	a := BandedSPD(BandedOpts{N: 300, NNZPerRow: 7, Kappa: kappa, Seed: 3})
	lo, hi := a.GershgorinBounds()
	if lo <= 0 {
		t.Fatalf("lower bound %g", lo)
	}
	// Gershgorin estimate of the condition number should be within ~2x of
	// the requested kappa.
	est := hi / lo
	if est < kappa/3 || est > kappa*3 {
		t.Errorf("Gershgorin kappa %g, requested %g", est, kappa)
	}
}

func TestItersKappaRoundTrip(t *testing.T) {
	for _, iters := range []int{50, 300, 2000} {
		kappa := ItersToKappa(iters, DefaultTol)
		// Back through the CG iteration bound; the round trip includes
		// the calibration constant, so compare against iters adjusted by it.
		back := math.Ceil(0.5 * math.Sqrt(kappa) * math.Log(2/DefaultTol))
		want := float64(iters) / cgBoundCalibration
		if math.Abs(back-want) > 0.02*want+2 {
			t.Errorf("iters=%d: kappa=%g back=%g want~%g", iters, kappa, back, want)
		}
	}
	if ItersToKappa(0, DefaultTol) < 1 {
		t.Error("kappa must be >= 1")
	}
}

func TestRHSConsistent(t *testing.T) {
	a := Laplacian2D(8)
	b, xTrue := RHS(a)
	if len(b) != a.Rows || len(xTrue) != a.Rows {
		t.Fatal("length mismatch")
	}
	y := make([]float64, a.Rows)
	a.MulVec(y, xTrue)
	for i := range y {
		if math.Abs(y[i]-b[i]) > 1e-12 {
			t.Fatalf("b != A*xTrue at %d", i)
		}
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 14 {
		t.Fatalf("catalog has %d entries, want 14 (Table 3)", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if seen[s.Name] {
			t.Errorf("duplicate catalog name %s", s.Name)
		}
		seen[s.Name] = true
		if s.PaperRows <= 0 || s.NNZPerRow <= 0 || s.PaperIters <= 0 {
			t.Errorf("%s: invalid paper data", s.Name)
		}
	}
	for _, name := range []string{"Kuu", "crystm02", "Andrews", "nd24k", "x104", "cvxbqp1", "5-point stencil"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%s): %v", name, err)
		}
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Error("Lookup of unknown matrix must fail")
	}
}

func TestScaleCapsAndParsing(t *testing.T) {
	spec, _ := Lookup("x104")
	if r := spec.Rows(Tiny); r > 512 {
		t.Errorf("tiny rows %d", r)
	}
	if r := spec.Rows(CI); r > 4096 {
		t.Errorf("ci rows %d", r)
	}
	if r := spec.Rows(Paper); r != spec.PaperRows {
		t.Errorf("paper rows %d", r)
	}
	if it := spec.TargetIters(Tiny); it > 260 {
		t.Errorf("tiny iters %d", it)
	}
	for _, s := range []string{"tiny", "ci", "paper"} {
		sc, err := ParseScale(s)
		if err != nil || sc.String() != s {
			t.Errorf("ParseScale(%s) = %v, %v", s, sc, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

// TestCatalogIterationCalibration checks every generated analog lands in
// a broad band around its iteration target (the calibration contract).
func TestCatalogIterationCalibration(t *testing.T) {
	for _, spec := range Catalog() {
		if spec.Stencil {
			continue // generated exactly, not via the kappa knob
		}
		a := spec.Generate(Tiny)
		b, _ := RHS(a)
		target := spec.TargetIters(Tiny)
		iters, conv := solver.SolveFaultFreeIters(a, b, DefaultTol, 40*target)
		if !conv {
			t.Errorf("%s: did not converge", spec.Name)
			continue
		}
		lo, hi := target/3, target*3
		if iters < lo || iters > hi {
			t.Errorf("%s: %d iterations, want within [%d, %d] of target %d",
				spec.Name, iters, lo, hi, target)
		}
	}
}

func TestGenerateStencilSquare(t *testing.T) {
	spec, _ := Lookup("5-point stencil")
	a := spec.Generate(Tiny)
	g := intSqrt(a.Rows)
	if g*g != a.Rows {
		t.Errorf("stencil rows %d not a perfect square", a.Rows)
	}
}
