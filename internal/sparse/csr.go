// Package sparse implements compressed sparse row (CSR) and coordinate
// (COO) matrices, the kernels CG needs (SpMV, transpose-free symmetric
// products), block-row partitioning for distributed solves, and Matrix
// Market I/O.
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

// Diag returns the main diagonal as a dense vector (zeros where absent).
func (m *CSR) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
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
