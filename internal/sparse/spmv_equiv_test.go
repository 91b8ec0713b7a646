package sparse

import (
	"math"
	"math/rand"
	"reflect"
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

// isRun reports whether row i's columns are c, c+1, …, c+n-1 in stored
// order, the rows MulVecRuns may take without a gather.
func isRun(m *CSR, i int) bool {
	cols, _ := m.Row(i)
	for k, c := range cols {
		if c != cols[0]+k {
			return false
		}
	}
	return true
}

// runsOf returns the row ranges of a MulVecRuns plan for m: every
// maximal stretch of run rows, cut into groups of four from its first
// row, keeping each group for which keep says so (adjacent kept groups
// become one range). Keeping every group gives PlanRuns's ranges.
func runsOf(m *CSR, keep func() bool) []int {
	var runs []int
	for i := 0; i < m.Rows; {
		j := i
		for j < m.Rows && isRun(m, j) {
			j++
		}
		for g := i; g+4 <= j; g += 4 {
			if !keep() {
				continue
			}
			if n := len(runs); n > 0 && runs[n-1] == g {
				runs[n-1] = g + 4
			} else {
				runs = append(runs, g, g+4)
			}
		}
		i = j + 1
	}
	return runs
}

// mixedCSR builds a rows x cols matrix (cols >= 60) whose rows are drawn
// from the shapes MulVecRuns meets: empty rows, runs of 1-9, 58 or 59
// entries that start at column 0, end at column cols or sit anywhere,
// and two kinds of row that must stay on the gather path: a run with a
// column skipped, and a run with two inner columns swapped, whose first
// and last columns look like a run's (a LocalOp's remapped rows are not
// sorted, so this can happen there).
func mixedCSR(rng *rand.Rand, rows, cols int) *CSR {
	lens := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 58, 59}
	m := NewCSR(rows, cols, 0)
	for i := 0; i < rows; i++ {
		switch r := rng.Intn(10); {
		case r == 0: // empty
		case r == 1: // swapped: a run of 4-9 with two inner columns exchanged
			n := 4 + rng.Intn(6)
			c := rng.Intn(cols - n + 1)
			k := 1 + rng.Intn(n-3)
			for j := 0; j < n; j++ {
				m.ColIdx = append(m.ColIdx, c+j)
			}
			row := m.ColIdx[len(m.ColIdx)-n:]
			row[k], row[k+1] = row[k+1], row[k]
		case r == 2: // gap: a run with one column skipped
			n := 2 + rng.Intn(8)
			c := rng.Intn(cols - n)
			skip := 1 + rng.Intn(n-1)
			for k := 0; k <= n; k++ {
				if k != skip {
					m.ColIdx = append(m.ColIdx, c+k)
				}
			}
		default:
			n := lens[rng.Intn(len(lens))]
			c := rng.Intn(cols - n + 1)
			switch rng.Intn(3) {
			case 0:
				c = 0
			case 1:
				c = cols - n
			}
			for k := 0; k < n; k++ {
				m.ColIdx = append(m.ColIdx, c+k)
			}
		}
		for len(m.Val) < len(m.ColIdx) {
			m.Val = append(m.Val, rng.NormFloat64())
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// TestMulVecRunsBitwise checks PlanRuns against runsOf and the run
// kernel against the scalar reference bit for bit: over mixed matrices
// of every row count mod 4, with PlanRuns's plan and with random subsets
// of it (adjacent ranges, lone groups), so gather stretches of every
// length sit between the four-row groups; over rows of equal length (the
// band interior); and with no plan at all.
func TestMulVecRunsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	check := func(m *CSR, p *RunPlan) {
		t.Helper()
		x := randVec(rng, m.Cols)
		got, want := randVec(rng, m.Rows), make([]float64, m.Rows)
		m.MulVecRuns(got, x, p)
		refMulVec(m, want, x)
		if !sameBits(got, want) {
			t.Fatalf("MulVecRuns differs from scalar reference for %s with plan %+v", m, p)
		}
	}
	all := func() bool { return true }
	half := func() bool { return rng.Intn(2) == 0 }
	planned := 0
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 33, 34, 35, 36, 201, 202, 203, 204} {
		for range 4 {
			m := mixedCSR(rng, rows, 64+rng.Intn(3))
			p := m.PlanRuns()
			if want := runsOf(m, all); p == nil && want != nil || p != nil && !reflect.DeepEqual(p.ranges, want) {
				t.Fatalf("PlanRuns %+v for %s, want ranges %v", p, m, want)
			}
			if p != nil {
				planned++
			}
			check(m, p)
			check(m, m.planOf(runsOf(m, half)))
			check(m, nil)
		}
	}
	if planned == 0 {
		t.Fatal("no mixed matrix produced a four-row group of runs")
	}
	// A band: every row a run of 59 (58 at the two edges, where the band
	// is cut), so groups run in lockstep to their common length.
	band := NewCSR(64, 64+58, 0)
	for i := 0; i < band.Rows; i++ {
		lo, hi := max(i, 1), min(i+59, band.Cols-1)
		for c := lo; c < hi; c++ {
			band.ColIdx = append(band.ColIdx, c)
			band.Val = append(band.Val, rng.NormFloat64())
		}
		band.RowPtr[i+1] = len(band.Val)
	}
	check(band, band.PlanRuns())
	check(band, band.planOf(runsOf(band, half)))
}
