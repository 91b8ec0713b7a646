package sparse

import (
	"fmt"
	"sort"
)

// Partition describes a 1-D block-row partition of an n x n matrix among P
// processes, as in Figure 2 of the paper. Block p owns rows
// [Starts[p], Starts[p+1]).
type Partition struct {
	N      int
	P      int
	Starts []int // length P+1, Starts[0]=0, Starts[P]=N
}

// NewPartition splits n rows into p nearly-equal contiguous blocks. The
// first n%p blocks receive one extra row.
func NewPartition(n, p int) *Partition {
	if p <= 0 || n < 0 {
		panic(fmt.Sprintf("sparse: invalid partition n=%d p=%d", n, p))
	}
	starts := make([]int, p+1)
	base, extra := n/p, n%p
	for i := 0; i < p; i++ {
		sz := base
		if i < extra {
			sz++
		}
		starts[i+1] = starts[i] + sz
	}
	return &Partition{N: n, P: p, Starts: starts}
}

// Range returns the half-open row range [lo, hi) of block p.
func (pt *Partition) Range(p int) (lo, hi int) {
	return pt.Starts[p], pt.Starts[p+1]
}

// Size returns the number of rows owned by block p.
func (pt *Partition) Size(p int) int { return pt.Starts[p+1] - pt.Starts[p] }

// Owner returns the block that owns global row i.
func (pt *Partition) Owner(i int) int {
	if i < 0 || i >= pt.N {
		panic(fmt.Sprintf("sparse: Owner(%d) out of range [0,%d)", i, pt.N))
	}
	// Binary search over Starts.
	lo, hi := 0, pt.P
	for lo < hi {
		mid := (lo + hi) / 2
		if pt.Starts[mid+1] <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Slice returns the sub-slice of a global vector owned by block p.
func (pt *Partition) Slice(x []float64, p int) []float64 {
	return x[pt.Starts[p]:pt.Starts[p+1]]
}

// RowBlock extracts the row block A_{p,:} of m: the rows owned by block p,
// all columns (global column indexing is preserved).
func (pt *Partition) RowBlock(m *CSR, p int) *CSR {
	lo, hi := pt.Range(p)
	nnz := m.RowPtr[hi] - m.RowPtr[lo]
	b := &CSR{
		Rows:   hi - lo,
		Cols:   m.Cols,
		RowPtr: make([]int, hi-lo+1),
		ColIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	base := m.RowPtr[lo]
	for i := lo; i <= hi; i++ {
		b.RowPtr[i-lo] = m.RowPtr[i] - base
	}
	copy(b.ColIdx, m.ColIdx[base:base+nnz])
	copy(b.Val, m.Val[base:base+nnz])
	return b
}

// DiagBlock extracts the diagonal block A_{p,p}: rows and columns owned by
// block p, with local (0-based within the block) indexing. For an SPD
// matrix the diagonal block is itself SPD, which the LI recovery scheme
// relies on.
func (pt *Partition) DiagBlock(m *CSR, p int) *CSR {
	lo, hi := pt.Range(p)
	b := NewCSR(hi-lo, hi-lo, 0)
	for i := lo; i < hi; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j >= lo && j < hi {
				b.ColIdx = append(b.ColIdx, j-lo)
				b.Val = append(b.Val, m.Val[k])
			}
		}
		b.RowPtr[i-lo+1] = len(b.Val)
	}
	return b
}

// ColBlock extracts the column block A_{:,p}: all rows, columns owned by
// block p, with local column indexing. For LSI (Eq. 18/20) this is the
// least-squares operator. For symmetric A it equals RowBlock(m, p)
// transposed, which the optimized LSI path exploits (Eq. 21).
func (pt *Partition) ColBlock(m *CSR, p int) *CSR {
	lo, hi := pt.Range(p)
	b := NewCSR(m.Rows, hi-lo, 0)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j >= lo && j < hi {
				b.ColIdx = append(b.ColIdx, j-lo)
				b.Val = append(b.Val, m.Val[k])
			}
		}
		b.RowPtr[i+1] = len(b.Val)
	}
	return b
}

// HaloCols returns the sorted global column indices referenced by the row
// block of p that are NOT owned by p. These are the remote x entries a
// process must receive before its local SpMV — the communication pattern
// of distributed CG.
func (pt *Partition) HaloCols(m *CSR, p int) []int {
	lo, hi := pt.Range(p)
	seen := make(map[int]struct{})
	for i := lo; i < hi; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j < lo || j >= hi {
				seen[j] = struct{}{}
			}
		}
	}
	cols := make([]int, 0, len(seen))
	for j := range seen {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	return cols
}
