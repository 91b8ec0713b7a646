package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Scalar reference kernels: the pre-optimization implementations, kept
// here verbatim so the hoisted loops can be checked for bitwise identity.

func refMulVec(m *CSR, y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

func refMulTransVecAdd(m *CSR, y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			y[m.ColIdx[k]] += m.Val[k] * xi
		}
	}
}

// randCSR builds a random rows x cols matrix whose rows have between 0 and
// maxPerRow entries, so row lengths hit every short-row shape.
func randCSR(rng *rand.Rand, rows, cols, maxPerRow int) *CSR {
	m := NewCSR(rows, cols, rows*maxPerRow)
	for i := 0; i < rows; i++ {
		nnz := 0
		if cols > 0 && maxPerRow > 0 {
			nnz = rng.Intn(maxPerRow + 1)
			if nnz > cols {
				nnz = cols
			}
		}
		seen := map[int]bool{}
		var cs []int
		for len(cs) < nnz {
			j := rng.Intn(cols)
			if !seen[j] {
				seen[j] = true
				cs = append(cs, j)
			}
		}
		sort.Ints(cs)
		for _, j := range cs {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, rng.NormFloat64())
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// rowLenCSR builds a random matrix with cols columns whose row i has
// exactly lens[i] entries, so a test can name the row shapes it needs.
func rowLenCSR(rng *rand.Rand, cols int, lens []int) *CSR {
	m := NewCSR(len(lens), cols, 0)
	for i, n := range lens {
		for _, j := range rng.Perm(cols)[:n] {
			m.ColIdx = append(m.ColIdx, j)
		}
		sort.Ints(m.ColIdx[m.RowPtr[i]:])
		for range n {
			m.Val = append(m.Val, rng.NormFloat64())
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSpMVBitwiseEquivalence checks that the optimized kernels reproduce
// the scalar reference bit-for-bit across every short-row shape
// (row lengths 0..maxPerRow for n = 0..17), one large random case, and
// rows of exactly 0-9, 58 and 59 entries: every remainder of MulVec's
// 4-way unroll, empty rows, and the 58-entry rows of bcsstk16.
func TestSpMVBitwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(m *CSR) {
		t.Helper()
		x := randVec(rng, m.Cols)
		xt := randVec(rng, m.Rows)
		if m.Rows > 0 {
			xt[rng.Intn(m.Rows)] = 0 // exercise the zero-skip branch
		}
		y0 := randVec(rng, m.Rows)

		got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
		m.MulVec(got, x)
		refMulVec(m, want, x)
		if !sameBits(got, want) {
			t.Fatalf("MulVec differs from scalar reference for %s", m)
		}

		gotT, wantT := randVec(rng, m.Cols), []float64(nil)
		wantT = append(wantT, gotT...)
		m.MulTransVecAdd(gotT, xt)
		refMulTransVecAdd(m, wantT, xt)
		if !sameBits(gotT, wantT) {
			t.Fatalf("MulTransVecAdd differs from scalar reference for %s", m)
		}
	}

	for n := 0; n <= 17; n++ {
		check(randCSR(rng, n, n, n))     // square, row lengths 0..n
		check(randCSR(rng, n, n+3, n+1)) // rectangular
	}
	check(randCSR(rng, 300, 280, 40)) // large random case
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 58, 59}
	for range 4 {
		rng.Shuffle(len(lens), func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
		check(rowLenCSR(rng, 64, lens))
	}
}
