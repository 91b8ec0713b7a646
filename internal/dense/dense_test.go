package dense

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds A = BᵀB + n*I, guaranteed SPD.
func randomSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func residual(a *Matrix, x, b []float64) float64 {
	ax := make([]float64, a.Rows)
	a.MulVec(ax, x)
	var s, nb float64
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
		nb += b[i] * b[i]
	}
	if nb == 0 {
		nb = 1
	}
	return math.Sqrt(s / nb)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At failed")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Error("Row failed")
	}
	c := m.Clone()
	c.Set(0, 0, 7)
	if m.At(0, 0) == 7 {
		t.Error("Clone aliases")
	}
}

func TestMulTransVecAgainstTranspose(t *testing.T) {
	m := randomMatrix(4, 6, 1)
	x := []float64{1, -2, 3, -4}
	y1 := make([]float64, 6)
	m.MulTransVec(y1, x)
	y2 := make([]float64, 6)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			y2[j] += m.At(i, j) * x[i]
		}
	}
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-13 {
			t.Fatalf("MulTransVec mismatch at %d", i)
		}
	}
}

func TestLUSolve(t *testing.T) {
	for _, n := range []int{1, 3, 10, 40} {
		a := randomMatrix(n, n, int64(100+n))
		// Make it well-conditioned by boosting the diagonal.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		lu, err := NewLU(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = math.Sin(float64(i))
		}
		b := make([]float64, n)
		a.MulVec(b, want)
		x, err := lu.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := residual(a, x, b); r > 1e-10 {
			t.Errorf("n=%d residual %g", n, r)
		}
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero leading pivot requires a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := lu.Solve([]float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Errorf("permutation solve got %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2) // all zeros
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestQRLeastSquares(t *testing.T) {
	// Overdetermined: fit a known quadratic exactly sampled.
	m, n := 20, 3
	a := NewMatrix(m, n)
	b := make([]float64, m)
	coef := []float64{2, -1, 0.5}
	for i := 0; i < m; i++ {
		x := float64(i) / float64(m)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		a.Set(i, 2, x*x)
		b[i] = coef[0] + coef[1]*x + coef[2]*x*x
	}
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := qr.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coef {
		if math.Abs(x[i]-coef[i]) > 1e-10 {
			t.Errorf("coef %d: got %g want %g", i, x[i], coef[i])
		}
	}
}

// Property: QR least-squares residual is orthogonal to the column space.
func TestQuickQRNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := n + rng.Intn(10)
		a := randomMatrix(m, n, seed)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		qr, err := NewQR(a)
		if err != nil {
			return true // singular random draw: skip
		}
		x, err := qr.SolveLS(b)
		if err != nil {
			return true
		}
		// r = b - A x must satisfy Aᵀ r ≈ 0.
		r := make([]float64, m)
		a.MulVec(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		atr := make([]float64, n)
		a.MulTransVec(atr, r)
		for _, v := range atr {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQRSquareMatchesExact(t *testing.T) {
	a := randomSPD(6, 9)
	want := []float64{1, 2, 3, 4, 5, 6}
	b := make([]float64, 6)
	a.MulVec(b, want)
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := qr.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Errorf("x[%d]=%g want %g", i, x[i], want[i])
		}
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); err == nil {
		t.Error("wide matrix accepted")
	}
}

func TestFlopCountsPositive(t *testing.T) {
	a := randomSPD(5, 1)
	lu, _ := NewLU(a)
	qr, _ := NewQR(a)
	if lu.FactorFlops() <= 0 || lu.SolveFlops() <= 0 ||
		qr.FactorFlops() <= 0 || qr.SolveFlops() <= 0 {
		t.Error("flop counts must be positive")
	}
}
