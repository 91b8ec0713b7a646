package sparse

import "testing"

// TestPartitionDegenerate is the table-driven edge battery for the block-
// row partitioner: a single rank owning everything, one row per rank, and
// a one-row system. Every consistency property the fuzz target checks
// probabilistically is pinned here on the exact boundary shapes.
func TestPartitionDegenerate(t *testing.T) {
	cases := []struct {
		name string
		n, p int
	}{
		{"single-rank", 9, 1},
		{"single-rank-single-row", 1, 1},
		{"rank-per-row", 7, 7},
		{"two-rows-two-ranks", 2, 2},
		{"prime-split", 13, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pt := NewPartition(tc.n, tc.p)
			if len(pt.Starts) != tc.p+1 || pt.Starts[0] != 0 || pt.Starts[tc.p] != tc.n {
				t.Fatalf("Starts = %v, want %d boundaries covering [0, %d)", pt.Starts, tc.p+1, tc.n)
			}
			total, minSz, maxSz := 0, tc.n+1, -1
			for r := 0; r < tc.p; r++ {
				sz := pt.Size(r)
				if sz < 1 {
					t.Fatalf("rank %d owns %d rows; every rank must own at least one", r, sz)
				}
				total += sz
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
			}
			if total != tc.n {
				t.Fatalf("blocks cover %d rows, want %d", total, tc.n)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("block sizes span [%d, %d], want balanced within 1", minSz, maxSz)
			}
			for i := 0; i < tc.n; i++ {
				r := pt.Owner(i)
				lo, hi := pt.Range(r)
				if i < lo || i >= hi {
					t.Fatalf("Owner(%d) = %d but Range(%d) = [%d, %d)", i, r, r, lo, hi)
				}
			}
		})
	}
}

// TestPartitionSingleRankBlocks: with p = 1 the rank's row block IS the
// matrix, its diagonal block IS the matrix, and its off-diagonal block
// and halo are empty — the distributed SpMV degenerates to the serial one.
func TestPartitionSingleRankBlocks(t *testing.T) {
	m := NewCOO(5, 5)
	for i := 0; i < 5; i++ {
		m.Add(i, i, 2)
		if i > 0 {
			m.Add(i, i-1, -1)
			m.Add(i-1, i, -1)
		}
	}
	a := m.ToCSR()
	pt := NewPartition(5, 1)

	rb := pt.RowBlock(a, 0)
	if rb.Rows != 5 || rb.Cols != 5 || rb.NNZ() != a.NNZ() {
		t.Fatalf("RowBlock(0) is %dx%d with %d nnz, want the whole 5x5 matrix with %d", rb.Rows, rb.Cols, rb.NNZ(), a.NNZ())
	}
	db := pt.DiagBlock(a, 0)
	if db.NNZ() != a.NNZ() {
		t.Fatalf("DiagBlock(0) has %d nnz, want all %d (nothing is off-diagonal for one rank)", db.NNZ(), a.NNZ())
	}
	if halo := pt.HaloCols(a, 0); len(halo) != 0 {
		t.Fatalf("HaloCols(0) = %v, want empty (no remote columns exist)", halo)
	}
}
