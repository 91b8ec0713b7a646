package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format builder for sparse matrices. Duplicate
// entries are summed on conversion to CSR, which makes assembly of
// stencil and finite-element style matrices straightforward.
type COO struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty builder for a rows x cols matrix.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add appends entry (i, j, v). Adding to the same coordinate twice
// accumulates on conversion.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO.Add(%d,%d) out of bounds for %dx%d", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// AddSym appends (i, j, v) and, when i != j, also (j, i, v). It is a
// convenience for assembling symmetric matrices.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// ToCSR converts to CSR, summing duplicates and dropping exact zeros that
// result from cancellation only if dropZeros is true.
func (c *COO) ToCSR() *CSR {
	n := len(c.V)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if c.I[ia] != c.I[ib] {
			return c.I[ia] < c.I[ib]
		}
		return c.J[ia] < c.J[ib]
	})

	m := NewCSR(c.Rows, c.Cols, n)
	row := 0
	lastI, lastJ := -1, -1
	for _, k := range order {
		i, j, v := c.I[k], c.J[k], c.V[k]
		if i == lastI && j == lastJ {
			m.Val[len(m.Val)-1] += v
			continue
		}
		for row < i {
			row++
			m.RowPtr[row] = len(m.Val)
		}
		m.ColIdx = append(m.ColIdx, j)
		m.Val = append(m.Val, v)
		lastI, lastJ = i, j
	}
	for row < c.Rows {
		row++
		m.RowPtr[row] = len(m.Val)
	}
	return m
}
