// Package sparse implements compressed sparse row (CSR) and coordinate
// (COO) matrices, the kernels CG needs (SpMV, transpose-free symmetric
// products), block-row partitioning for distributed solves, and Matrix
// Market I/O.
//
// There is one storage, CSR, and one gather loop, MulVec. A RunPlan
// derived from a matrix's own arrays lists the rows whose columns form
// one contiguous run; MulVecRuns takes those four at a time as dot
// products with slices of x, loading no column index, and hands every
// other row to MulVec. Both are bitwise the scalar loop.
//
// The block-row partition mirrors Figure 2 of the paper: matrix A and
// vectors x, b are split into contiguous row blocks, one per process. A
// process owns A_{p_i,:} (its row block), the diagonal block A_{p_i,p_i},
// and the sub-vectors x_{p_i}, b_{p_i}.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// RowPtr has length Rows+1; the column indices and values of row i are
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]]. Column
// indices within a row are strictly increasing.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NewCSR allocates an empty Rows x Cols matrix with capacity for nnz
// non-zeros.
func NewCSR(rows, cols, nnz int) *CSR {
	return &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the value at (i, j), zero if not stored. It is O(log nnz(i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of bounds for %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// Row returns the column indices and values of row i, aliasing internal
// storage. Callers must not modify the column indices.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// The SpMV kernels below hoist every per-element bounds check out of the
// inner loop: ranging over the row's column slice bounds k and c, and
// re-slicing vals to len(cols) proves vals[k] safe. The accumulator is a
// single in-order chain, so results are bitwise-identical to the naive
// scalar loop (Go never reassociates floating-point additions).

// MulVec computes y = A*x. y must have length Rows and x length Cols.
//
// The inner loop is unrolled four ways into the same one-accumulator
// chain, in stored order, so the sum is still bitwise the scalar loop's.
// The unroll is for layout, not throughput (the chain of adds sets the
// pace either way): the rolled loop is 37 bytes and straddled a cache
// line, and ran slower, whenever the function started at 0 mod 64. The
// unrolled body is larger than a line at either start and measures the
// same at both (DESIGN §12).
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dims %dx%d with len(x)=%d len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	rowPtr := m.RowPtr
	for i := range y {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols := m.ColIdx[lo:hi]
		vals := m.Val[lo:hi]
		vals = vals[:len(cols)]
		var s float64
		k := 0
		for ; k+4 <= len(cols); k += 4 {
			c, v := cols[k:k+4:k+4], vals[k:k+4:k+4]
			s += v[0] * x[c[0]]
			s += v[1] * x[c[1]]
			s += v[2] * x[c[2]]
			s += v[3] * x[c[3]]
		}
		for ; k < len(cols); k++ {
			s += vals[k] * x[cols[k]]
		}
		y[i] = s
	}
}

// A RunPlan lists the rows of one CSR that MulVecRuns takes four at a
// time without gathering x: row ranges in which every row is a run, its
// column indices c, c+1, …, c+n-1 in stored order (an empty row is one),
// and each run's first column c, so that the kernel loads no column index
// at all. Such a row's sum is a dot product with x[c:c+n]. The plan is
// derived from the matrix's own arrays and holds none of its values.
type RunPlan struct {
	ranges []int // [lo, hi) row pairs, ascending, disjoint, multiples of four long
	start  []int // start[i] is row i's first column, for the rows in ranges
}

// PlanRuns returns m's RunPlan: the whole groups of four, counted from
// its first row, of each maximal stretch of rows that are runs; nil if
// there are none, and MulVecRuns is then MulVec.
func (m *CSR) PlanRuns() *RunPlan {
	var ranges []int
	start := 0 // first row of the current stretch of runs
	for i := 0; i < m.Rows; i++ {
		if !m.isRun(i) {
			ranges = appendGroups(ranges, start, i)
			start = i + 1
		}
	}
	return m.planOf(appendGroups(ranges, start, m.Rows))
}

// isRun reports whether row i is a run. A row whose last column is not
// its first plus its length minus one is rejected without a scan, so a
// stencil's rows cost one compare each.
func (m *CSR) isRun(i int) bool {
	cols := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
	if len(cols) == 0 {
		return true
	}
	c := cols[0]
	if cols[len(cols)-1] != c+len(cols)-1 {
		return false
	}
	for k, col := range cols {
		if col != c+k {
			return false
		}
	}
	return true
}

// appendGroups appends to ranges the whole groups of four of the rows
// [lo, hi), as one range.
func appendGroups(ranges []int, lo, hi int) []int {
	if n := (hi - lo) &^ 3; n > 0 {
		ranges = append(ranges, lo, lo+n)
	}
	return ranges
}

// planOf returns the plan that takes the rows in ranges, all runs, four
// at a time; nil if ranges is empty.
func (m *CSR) planOf(ranges []int) *RunPlan {
	if len(ranges) == 0 {
		return nil
	}
	p := &RunPlan{ranges: ranges, start: make([]int, m.Rows)}
	for j := 0; j < len(ranges); j += 2 {
		for i := ranges[j]; i < ranges[j+1]; i++ {
			if k := m.RowPtr[i]; k < m.RowPtr[i+1] {
				p.start[i] = m.ColIdx[k]
			}
		}
	}
	return p
}

// MulVecRuns computes y = A*x like MulVec, taking the rows p lists four
// at a time without gathering x; p must be m's own plan. Each group
// of four rows is four independent one-accumulator chains stepped in
// lockstep (dot4), so the adds of four rows overlap where one row's would
// wait on each other, and every row's sum is still bitwise the scalar
// loop's. The rows
// between p's ranges go to MulVec in maximal stretches; with a nil plan
// it is MulVec.
func (m *CSR) MulVecRuns(y, x []float64, p *RunPlan) {
	if p == nil {
		m.MulVec(y, x)
		return
	}
	if len(x) != m.Cols || len(y) != m.Rows || len(p.start) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecRuns dims %dx%d with len(x)=%d len(y)=%d and a plan for %d rows",
			m.Rows, m.Cols, len(x), len(y), len(p.start)))
	}
	prev := 0
	for j := 0; j < len(p.ranges); j += 2 {
		lo, hi := p.ranges[j], p.ranges[j+1]
		m.rowRange(prev, lo).MulVec(y[prev:lo], x)
		for g := lo; g < hi; g += 4 {
			v0, x0 := p.run(m, g, x)
			v1, x1 := p.run(m, g+1, x)
			v2, x2 := p.run(m, g+2, x)
			v3, x3 := p.run(m, g+3, x)
			n := min(len(v0), len(v1), len(v2), len(v3))
			s0, s1, s2, s3 := dot4(v0[:n], x0[:n], v1[:n], x1[:n], v2[:n], x2[:n], v3[:n], x3[:n])
			y[g] = dotOn(s0, v0[n:], x0[n:])
			y[g+1] = dotOn(s1, v1[n:], x1[n:])
			y[g+2] = dotOn(s2, v2[n:], x2[n:])
			y[g+3] = dotOn(s3, v3[n:], x3[n:])
		}
		prev = hi
	}
	m.rowRange(prev, m.Rows).MulVec(y[prev:], x)
}

// rowRange returns rows [lo, hi) of m as a matrix sharing m's arrays.
// Its RowPtr keeps m's offsets, which MulVec reads as they are.
func (m *CSR) rowRange(lo, hi int) *CSR {
	return &CSR{Rows: hi - lo, Cols: m.Cols, RowPtr: m.RowPtr[lo : hi+1], ColIdx: m.ColIdx, Val: m.Val}
}

// run returns the values of row i of m, a run, and the stretch of x they
// multiply.
func (p *RunPlan) run(m *CSR, i int, x []float64) (vals, xs []float64) {
	vals = m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
	c := p.start[i]
	return vals, x[c : c+len(vals)]
}

// dot4 returns the four dot products a0·b0 … a3·b3 of equal-length
// vectors, each one in-order chain, the four stepped in lockstep. It is
// its own function so that the loop holds nothing but its eight
// pointers, its index and its four sums in registers.
//
//go:noinline
func dot4(a0, b0, a1, b1, a2, b2, a3, b3 []float64) (s0, s1, s2, s3 float64) {
	b0 = b0[:len(a0)]
	a1, b1 = a1[:len(a0)], b1[:len(a0)]
	a2, b2 = a2[:len(a0)], b2[:len(a0)]
	a3, b3 = a3[:len(a0)], b3[:len(a0)]
	for k := range a0 {
		s0 += a0[k] * b0[k]
		s1 += a1[k] * b1[k]
		s2 += a2[k] * b2[k]
		s3 += a3[k] * b3[k]
	}
	return s0, s1, s2, s3
}

// dotOn continues the one-accumulator chain s over v·x in order.
func dotOn(s float64, v, x []float64) float64 {
	x = x[:len(v)]
	for k := range v {
		s += v[k] * x[k]
	}
	return s
}

// MulTransVecAdd computes y += Aᵀ*x. y must have length Cols, x length Rows.
func (m *CSR) MulTransVecAdd(y, x []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("sparse: MulTransVecAdd dims %dx%d with len(x)=%d len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		cols := m.ColIdx[lo:hi]
		vals := m.Val[lo:hi]
		vals = vals[:len(cols)]
		for k, c := range cols {
			y[c] += vals[k] * xi
		}
	}
}

// MulTransVec computes y = Aᵀ*x.
func (m *CSR) MulTransVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	m.MulTransVecAdd(y, x)
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	// Count entries per column.
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			pos := next[j]
			t.ColIdx[pos] = i
			t.Val[pos] = m.Val[k]
			next[j]++
		}
	}
	return t
}

// IsSymmetric reports whether the matrix is symmetric to within tol in a
// relative sense: |a_ij - a_ji| <= tol * max(|a_ij|, |a_ji|, 1).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		tlo := t.RowPtr[i]
		if hi-lo != t.RowPtr[i+1]-tlo {
			return false
		}
		for k := lo; k < hi; k++ {
			tk := tlo + (k - lo)
			if m.ColIdx[k] != t.ColIdx[tk] {
				return false
			}
			a, b := m.Val[k], t.Val[tk]
			scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
			if math.Abs(a-b) > tol*scale {
				return false
			}
		}
	}
	return true
}

// GershgorinBounds returns lower and upper bounds on the eigenvalues from
// Gershgorin's circle theorem. For SPD matrices lower may still come out
// negative; it is a bound, not an estimate.
func (m *CSR) GershgorinBounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows; i++ {
		var center, radius float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				center = m.Val[k]
			} else {
				radius += math.Abs(m.Val[k])
			}
		}
		if c := center - radius; c < lo {
			lo = c
		}
		if c := center + radius; c > hi {
			hi = c
		}
	}
	if m.Rows == 0 {
		return 0, 0
	}
	return lo, hi
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int, len(m.RowPtr)),
		ColIdx: make([]int, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// SpMVFlops returns the flop count of one SpMV with this matrix
// (a multiply and an add per stored entry).
func (m *CSR) SpMVFlops() int64 { return 2 * int64(m.NNZ()) }

// Validate checks structural invariants and returns a descriptive error if
// any are violated. It is used by tests and by Matrix Market loading.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.Rows] != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: nnz mismatch: RowPtr end %d, ColIdx %d, Val %d",
			m.RowPtr[m.Rows], len(m.ColIdx), len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, j)
			}
			prev = j
		}
	}
	return nil
}

// String returns a short description, e.g. "CSR 420x420 nnz=7860".
func (m *CSR) String() string {
	return fmt.Sprintf("CSR %dx%d nnz=%d", m.Rows, m.Cols, m.NNZ())
}
