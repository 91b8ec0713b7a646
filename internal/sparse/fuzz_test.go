package sparse

import (
	"testing"
)

// decodeMatrix builds a small COO matrix plus input vectors from fuzz
// bytes. All values are small integers, so every sum below is exact in
// float64 and reference comparisons can demand bitwise equality without
// worrying about accumulation order.
func decodeMatrix(data []byte) (rows, cols int, coo *COO, dense [][]float64, x, xt []float64, ok bool) {
	if len(data) < 2 {
		return 0, 0, nil, nil, nil, nil, false
	}
	rows = 1 + int(data[0])%8
	cols = 1 + int(data[1])%8
	data = data[2:]
	coo = NewCOO(rows, cols)
	dense = make([][]float64, rows)
	for i := range dense {
		dense[i] = make([]float64, cols)
	}
	for len(data) >= 3 {
		i := int(data[0]) % rows
		j := int(data[1]) % cols
		v := float64(int8(data[2]))
		coo.Add(i, j, v)
		dense[i][j] += v
		data = data[3:]
	}
	x = make([]float64, cols)
	xt = make([]float64, rows)
	for j := range x {
		x[j] = float64(j%5 - 2)
	}
	for i := range xt {
		xt[i] = float64(i%7 - 3)
	}
	return rows, cols, coo, dense, x, xt, true
}

// FuzzCSRMulVec checks COO→CSR construction and the bounds-check-hoisted
// SpMV kernels against a dense reference. Duplicate COO entries must sum;
// the produced CSR must pass its structural validator; MulVec and
// MulTransVec must agree with the dense product bitwise (all values are
// exact small integers), and MulVecRuns with MulVec.
func FuzzCSRMulVec(f *testing.F) {
	f.Add([]byte{4, 4, 0, 0, 1, 1, 2, 3, 3, 1, 255})
	f.Add([]byte{1, 1, 0, 0, 127})
	f.Add([]byte{8, 8, 0, 7, 1, 7, 0, 2, 3, 3, 128, 0, 7, 1, 0, 7, 1}) // duplicates
	f.Add([]byte{2, 3})                                                // empty matrix
	// Rows of 8, 7, 0, 5 and 6 entries: every remainder of the 4-way unroll.
	f.Add([]byte{4, 7, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8, 1, 0, 9, 1, 1, 10, 1, 2, 11, 1, 3, 12, 1, 4, 13, 1, 5, 1, 1, 6, 2, 3, 0, 12, 3, 1, 13, 3, 2, 1, 3, 3, 2, 3, 4, 3, 4, 0, 7, 4, 1, 8, 4, 2, 9, 4, 3, 10, 4, 4, 11, 4, 5, 12})
	// Bands, whose rows are runs: MulVecRuns takes them four at a time,
	// around an empty row, and beside a row with a gap.
	f.Add([]byte{7, 7, 0, 0, 4, 0, 1, 255, 1, 0, 255, 1, 1, 4, 1, 2, 255, 2, 1, 255, 2, 2, 4, 2, 3, 255, 3, 2, 255, 3, 3, 4, 3, 4, 255, 4, 3, 255, 4, 4, 4, 4, 5, 255, 5, 4, 255, 5, 5, 4, 5, 6, 255, 6, 5, 255, 6, 6, 4, 6, 7, 255, 7, 6, 255, 7, 7, 4})
	f.Add([]byte{7, 7, 0, 0, 253, 0, 1, 255, 0, 2, 1, 1, 0, 254, 1, 1, 1, 1, 2, 2, 1, 3, 253, 2, 0, 255, 2, 1, 1, 2, 2, 3, 2, 3, 254, 2, 4, 1, 3, 1, 2, 3, 2, 253, 3, 3, 255, 3, 4, 1, 3, 5, 3, 4, 2, 254, 4, 3, 1, 4, 4, 2, 4, 5, 253, 4, 6, 255, 6, 4, 253, 6, 5, 255, 6, 6, 1, 6, 7, 3, 7, 5, 1, 7, 6, 2, 7, 7, 253})
	f.Add([]byte{7, 7, 0, 0, 2, 0, 1, 1, 1, 0, 3, 1, 1, 2, 1, 2, 1, 2, 1, 3, 2, 3, 1, 3, 2, 3, 3, 3, 2, 3, 4, 1, 4, 3, 3, 4, 4, 2, 4, 5, 1, 5, 4, 3, 5, 5, 2, 5, 6, 1, 6, 5, 3, 6, 6, 2, 6, 7, 1, 7, 6, 3, 7, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, coo, dense, x, xt, ok := decodeMatrix(data)
		if !ok {
			return
		}
		m := coo.ToCSR()
		if err := m.Validate(); err != nil {
			t.Fatalf("ToCSR produced invalid CSR: %v", err)
		}
		if m.Rows != rows || m.Cols != cols {
			t.Fatalf("ToCSR dims %dx%d, want %dx%d", m.Rows, m.Cols, rows, cols)
		}
		// At must reproduce the summed dense entries.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if got := m.At(i, j); got != dense[i][j] {
					t.Fatalf("At(%d,%d) = %g, dense reference %g", i, j, got, dense[i][j])
				}
			}
		}
		// y = A x against the dense reference.
		y := make([]float64, rows)
		m.MulVec(y, x)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += dense[i][j] * x[j]
			}
			if y[i] != want {
				t.Fatalf("MulVec row %d = %g, dense reference %g", i, y[i], want)
			}
		}
		// The run kernel, taking every whole group of run rows.
		yr := make([]float64, rows)
		m.MulVecRuns(yr, x, m.PlanRuns())
		if !sameBits(yr, y) {
			t.Fatalf("MulVecRuns = %v, MulVec = %v", yr, y)
		}
		// y = A' xt against the dense reference.
		yt := make([]float64, cols)
		m.MulTransVec(yt, xt)
		for j := 0; j < cols; j++ {
			var want float64
			for i := 0; i < rows; i++ {
				want += dense[i][j] * xt[i]
			}
			if yt[j] != want {
				t.Fatalf("MulTransVec col %d = %g, dense reference %g", j, yt[j], want)
			}
		}
	})
}

// FuzzPartition checks the block-row partitioner's invariants for any
// (n, p): contiguous coverage, balanced sizes (difference at most one),
// and Owner/Range/Slice consistency.
func FuzzPartition(f *testing.F) {
	f.Add(uint16(1), uint16(1))
	f.Add(uint16(64), uint16(7))
	f.Add(uint16(1000), uint16(32))
	f.Add(uint16(5), uint16(5))
	f.Fuzz(func(t *testing.T, nRaw, pRaw uint16) {
		n := 1 + int(nRaw)%2048
		p := 1 + int(pRaw)%n
		pt := NewPartition(n, p)
		if len(pt.Starts) != p+1 || pt.Starts[0] != 0 || pt.Starts[p] != n {
			t.Fatalf("Starts must run 0..%d over %d blocks, got %v", n, p, pt.Starts)
		}
		minSz, maxSz := n, 0
		for r := 0; r < p; r++ {
			lo, hi := pt.Range(r)
			if lo != pt.Starts[r] || hi != pt.Starts[r+1] || hi < lo {
				t.Fatalf("Range(%d) = [%d, %d) disagrees with Starts %v", r, lo, hi, pt.Starts)
			}
			sz := pt.Size(r)
			if sz != hi-lo {
				t.Fatalf("Size(%d) = %d, Range says %d", r, sz, hi-lo)
			}
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			x := make([]float64, n)
			if got := len(pt.Slice(x, r)); got != sz {
				t.Fatalf("Slice(%d) has %d elements, want %d", r, got, sz)
			}
		}
		if maxSz-minSz > 1 {
			t.Fatalf("unbalanced partition: block sizes span [%d, %d]", minSz, maxSz)
		}
		for i := 0; i < n; i++ {
			r := pt.Owner(i)
			lo, hi := pt.Range(r)
			if i < lo || i >= hi {
				t.Fatalf("Owner(%d) = %d but Range(%d) = [%d, %d)", i, r, r, lo, hi)
			}
		}
	})
}
