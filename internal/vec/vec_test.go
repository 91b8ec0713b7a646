package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDot(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{-1, 1}, []float64{1, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.x, c.y); got != c.want {
			t.Errorf("Dot(%v,%v)=%g want %g", c.x, c.y, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); !almostEq(got, 5, 1e-15) {
		t.Errorf("Nrm2{3,4}=%g want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Errorf("Nrm2(nil)=%g want 0", got)
	}
	// Overflow robustness: naive sum of squares would overflow.
	big := []float64{1e200, 1e200}
	if got := Nrm2(big); math.IsInf(got, 0) || !almostEq(got, 1e200*math.Sqrt2, 1e-12) {
		t.Errorf("Nrm2 overflow-robustness failed: %g", got)
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", y, want)
		}
	}
}

func TestSubXpby(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	d := make([]float64, 2)
	Sub(d, a, b)
	if d[0] != 3 || d[1] != 4 {
		t.Errorf("Sub got %v", d)
	}
	y := []float64{1, 1}
	Xpby(a, 2, y) // y = a + 2*y
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Xpby got %v", y)
	}
}

func TestZero(t *testing.T) {
	x := []float64{-2.5, 1, math.Inf(1), math.NaN()}
	Zero(x)
	for i, v := range x {
		if v != 0 {
			t.Errorf("Zero left x[%d] = %g", i, v)
		}
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2([]float64{0, 0}, []float64{3, 4}); !almostEq(got, 5, 1e-15) {
		t.Errorf("Dist2 got %g", got)
	}
}

// Property: Dot is symmetric and bilinear (quick-check).
func TestQuickDotSymmetry(t *testing.T) {
	f := func(xs []float64) bool {
		// Clamp to avoid Inf-Inf = NaN in the reference comparison.
		for i := range xs {
			if math.Abs(xs[i]) > 1e100 || math.IsNaN(xs[i]) {
				xs[i] = 1
			}
		}
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = float64(i) - 1.5
		}
		return Dot(xs, ys) == Dot(ys, xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ||x||² == Dot(x, x) within rounding.
func TestQuickNrm2MatchesDot(t *testing.T) {
	f := func(xs []float64) bool {
		// Clamp inputs to a sane range to avoid overflow in Dot (Nrm2 is
		// robust but Dot is not, by design).
		for i := range xs {
			if math.Abs(xs[i]) > 1e100 || math.IsNaN(xs[i]) {
				xs[i] = 1
			}
		}
		n := Nrm2(xs)
		return almostEq(n*n, Dot(xs, xs), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Axpy(-1, x, x') zeroes a copy of x.
func TestQuickAxpySelfCancel(t *testing.T) {
	f := func(xs []float64) bool {
		y := append([]float64(nil), xs...)
		Axpy(-1, xs, y)
		for _, v := range y {
			if v != 0 && !math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlopCounts(t *testing.T) {
	if DotFlops(10) != 20 || AxpyFlops(10) != 20 || Nrm2Flops(10) != 20 {
		t.Error("flop count helpers changed unexpectedly")
	}
}
