package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseOf expands a CSR matrix for reference computations.
func denseOf(m *CSR) [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		cols, vals := m.Row(i)
		for k, j := range cols {
			d[i][j] = vals[k]
		}
	}
	return d
}

// randomCSR builds a random sparse matrix via COO with the given density.
func randomCSR(rows, cols int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func TestCSRBasics(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 1)
	coo.Add(0, 2, 2)
	coo.Add(1, 1, 3)
	coo.Add(2, 0, 4)
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ=%d", m.NNZ())
	}
	if m.At(0, 2) != 2 || m.At(0, 1) != 0 || m.At(2, 0) != 4 {
		t.Error("At returned wrong values")
	}
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 1 {
		t.Error("RowNNZ wrong")
	}
	if m.String() != "CSR 3x3 nnz=4" {
		t.Errorf("String()=%q", m.String())
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	m := NewCSR(2, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestMulVecAgainstDense(t *testing.T) {
	m := randomCSR(17, 23, 0.2, 1)
	d := denseOf(m)
	x := make([]float64, 23)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	y := make([]float64, 17)
	m.MulVec(y, x)
	for i := range y {
		var want float64
		for j := range x {
			want += d[i][j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("row %d: got %g want %g", i, y[i], want)
		}
	}
}

func TestMulTransVecAgainstDense(t *testing.T) {
	m := randomCSR(11, 7, 0.3, 2)
	d := denseOf(m)
	x := make([]float64, 11)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	y := make([]float64, 7)
	m.MulTransVec(y, x)
	for j := range y {
		var want float64
		for i := range x {
			want += d[i][j] * x[i]
		}
		if math.Abs(y[j]-want) > 1e-12 {
			t.Fatalf("col %d: got %g want %g", j, y[j], want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomCSR(13, 9, 0.25, 4)
	tt := m.Transpose().Transpose()
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
		t.Fatal("transpose changed shape")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tt.At(i, j) {
				t.Fatalf("(%d,%d) differs", i, j)
			}
		}
	}
}

// Property: (Aᵀ x)·y == x·(A y) for random shapes.
func TestQuickTransposeAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		m := randomCSR(rows, cols, 0.3, seed)
		x := make([]float64, rows)
		y := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		atx := make([]float64, cols)
		m.MulTransVec(atx, x)
		ay := make([]float64, rows)
		m.MulVec(ay, y)
		var lhs, rhs float64
		for i := range atx {
			lhs += atx[i] * y[i]
		}
		for i := range ay {
			rhs += ay[i] * x[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIsSymmetric(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.AddSym(0, 1, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(2, 2, 1)
	if !coo.ToCSR().IsSymmetric(1e-14) {
		t.Error("symmetric matrix not detected")
	}
	coo2 := NewCOO(2, 2)
	coo2.Add(0, 1, 1)
	coo2.Add(1, 0, 2)
	coo2.Add(0, 0, 1)
	coo2.Add(1, 1, 1)
	if coo2.ToCSR().IsSymmetric(1e-14) {
		t.Error("asymmetric matrix reported symmetric")
	}
	rect := NewCSR(2, 3, 0)
	if rect.IsSymmetric(1e-14) {
		t.Error("rectangular matrix reported symmetric")
	}
}

func TestGershgorinBounds(t *testing.T) {
	// tridiag(-1, 2, -1): eigenvalues in (0, 4); Gershgorin gives [0, 4].
	coo := NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, 2)
		if i+1 < 4 {
			coo.AddSym(i, i+1, -1)
		}
	}
	lo, hi := coo.ToCSR().GershgorinBounds()
	if lo != 0 || hi != 4 {
		t.Errorf("Gershgorin got [%g, %g] want [0, 4]", lo, hi)
	}
}

func TestCloneDeep(t *testing.T) {
	m := randomCSR(4, 4, 0.5, 5)
	c := m.Clone()
	if m.NNZ() == 0 {
		t.Skip("empty random draw")
	}
	c.Val[0] = 1e9
	if m.Val[0] == 1e9 {
		t.Error("Clone aliases values")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := randomCSR(5, 5, 0.5, 6)
	if m.NNZ() == 0 {
		t.Skip("empty random draw")
	}
	bad := m.Clone()
	bad.ColIdx[0] = 99
	if bad.Validate() == nil {
		t.Error("out-of-range column not caught")
	}
	bad2 := m.Clone()
	bad2.RowPtr[0] = 1
	if bad2.Validate() == nil {
		t.Error("bad RowPtr[0] not caught")
	}
	bad3 := m.Clone()
	bad3.RowPtr[bad3.Rows] = 0
	if bad3.Validate() == nil {
		t.Error("nnz mismatch not caught")
	}
}

func TestSpMVFlops(t *testing.T) {
	m := randomCSR(6, 6, 0.4, 7)
	if m.SpMVFlops() != 2*int64(m.NNZ()) {
		t.Error("SpMVFlops wrong")
	}
}
