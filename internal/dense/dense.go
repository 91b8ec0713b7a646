// Package dense provides the dense linear algebra the recovery baselines
// need: LU with partial pivoting for the LU-based LI scheme and
// Householder QR for the QR-based LSI scheme (the "previous work"
// baselines the paper's Section 4 optimizations are compared against).
package dense

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: invalid dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing internal storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M*x.
func (m *Matrix) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("dense: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// MulTransVec computes y = Mᵀ*x.
func (m *Matrix) MulTransVec(y, x []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("dense: MulTransVec dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += v * xi
		}
	}
}
