package solver

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"resilience/internal/cluster"
	"resilience/internal/matgen"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/sparse"
)

// randSymCSR builds a random structurally symmetric matrix with a full
// diagonal — the pattern class LocalOp's pairwise halo plan requires.
func randSymCSR(rng *rand.Rand, n, extraPerRow int) *sparse.CSR {
	cols := make([]map[int]float64, n)
	for i := 0; i < n; i++ {
		cols[i] = map[int]float64{i: 2 + rng.Float64()}
	}
	for i := 0; i < n; i++ {
		for e := 0; e < extraPerRow; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			cols[i][j] = v
			cols[j][i] = v
		}
	}
	m := sparse.NewCSR(n, n, 0)
	for i := 0; i < n; i++ {
		var cs []int
		for j := range cols[i] {
			cs = append(cs, j)
		}
		sort.Ints(cs)
		for _, j := range cs {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, cols[i][j])
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// refMulVec is the textbook CSR product, one bounds-checked index at a
// time — the reference the distributed kernel must match bit for bit.
func refMulVec(m *sparse.CSR, y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// checkMulVecDist builds a LocalOp for a on every rank and requires: the
// lazily built RowBlock equals the partition's extraction field for field;
// and over three rounds (distinct vectors, so stale ghosts in the reused
// buffers would show) MulVecDist == refMulVec bitwise.
func checkMulVecDist(t *testing.T, rng *rand.Rand, a *sparse.CSR, ranks int) {
	t.Helper()
	n := a.Rows
	part := sparse.NewPartition(n, ranks)
	xs := make([][]float64, 3)
	yRefs := make([][]float64, 3)
	for r := range xs {
		xs[r] = make([]float64, n)
		for i := range xs[r] {
			xs[r][i] = rng.NormFloat64()
		}
		yRefs[r] = make([]float64, n)
		refMulVec(a, yRefs[r], xs[r])
	}
	_, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		rb := op.RowBlock()
		if want := part.RowBlock(a, c.Rank()); !reflect.DeepEqual(rb, want) {
			return fmt.Errorf("rank %d: RowBlock() = %+v, partition extracts %+v", c.Rank(), rb, want)
		}
		if op.RowBlock() != rb {
			return fmt.Errorf("rank %d: RowBlock() rebuilt the block on its second call", c.Rank())
		}
		lo, _ := part.Range(c.Rank())
		y := make([]float64, op.N)
		for r, x := range xs {
			op.MulVecDist(c, y, part.Slice(x, c.Rank()))
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(yRefs[r][lo+i]) {
					return fmt.Errorf("rank %d round %d: row %d = %x, reference = %x",
						c.Rank(), r, lo+i, math.Float64bits(y[i]), math.Float64bits(yRefs[r][lo+i]))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("n=%d ranks=%d: %v", n, ranks, err)
	}
}

// TestMulVecDistBitwise checks that the distributed SpMV reproduces the
// sequential reference product bitwise over random structurally
// symmetric matrices and partitions, across repeated applications that
// reuse the operator's internal buffers.
func TestMulVecDistBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ n, extra, ranks int }{
		{1, 0, 1},
		{4, 1, 2},
		{9, 2, 3},
		{16, 3, 4},
		{33, 2, 5},
		{64, 4, 8},
		{100, 6, 7},
		{128, 3, 16},
	}
	for _, tc := range cases {
		checkMulVecDist(t, rng, randSymCSR(rng, tc.n, tc.extra), tc.ranks)
	}
}

// TestMulVecDistRowListShapes drives the distributed SpMV through the
// shapes a random matrix rarely produces: a row with no entries, a rank on
// which every row touches a ghost, and a single rank that owns everything
// (no ghosts at all).
func TestMulVecDistRowListShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	// Row and column 5 emptied out of a random symmetric matrix.
	full := randSymCSR(rng, 12, 3)
	holed := sparse.NewCSR(12, 12, 0)
	for i := 0; i < 12; i++ {
		cols, vals := full.Row(i)
		for k, j := range cols {
			if i != 5 && j != 5 {
				holed.ColIdx = append(holed.ColIdx, j)
				holed.Val = append(holed.Val, vals[k])
			}
		}
		holed.RowPtr[i+1] = len(holed.Val)
	}
	if holed.RowNNZ(5) != 0 {
		t.Fatalf("row 5 still has %d entries", holed.RowNNZ(5))
	}
	checkMulVecDist(t, rng, holed, 3)

	// Row i couples to itself and to i±4 (mod 8): on two ranks of four
	// rows each, every row reads the other rank.
	cross := sparse.NewCSR(8, 8, 0)
	for i := 0; i < 8; i++ {
		j := (i + 4) % 8
		for _, c := range []int{min(i, j), max(i, j)} {
			cross.ColIdx = append(cross.ColIdx, c)
			if c == i {
				cross.Val = append(cross.Val, 3+rng.Float64())
			} else {
				cross.Val = append(cross.Val, 0.25*float64(1+min(i, j)))
			}
		}
		cross.RowPtr[i+1] = len(cross.Val)
	}
	checkMulVecDist(t, rng, cross, 2)

	// One rank owns every row: nothing is a ghost.
	checkMulVecDist(t, rng, randSymCSR(rng, 20, 3), 1)
}

// TestMulVecDistBanded drives the distributed SpMV through its run plan:
// banded matrices (Scatter 0) on rank counts whose blocks are not
// multiples of four rows, so the four-row groups of each block's plan sit
// next to the rows at its edges that read ghost columns and go to the
// gather loop, with 0-3 leftover run rows beside them.
func TestMulVecDistBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cases := []struct{ n, perRow, ranks int }{
		{203, 9, 3},  // blocks of 67 and 68 rows
		{203, 15, 5}, // 40 and 41
		{130, 7, 6},  // 21 and 22
		{243, 59, 3}, // 81 rows of up to 59 entries
	}
	for _, tc := range cases {
		a := matgen.BandedSPD(matgen.BandedOpts{N: tc.n, NNZPerRow: tc.perRow, Kappa: 100, Seed: int64(tc.n)})
		part := sparse.NewPartition(a.Rows, tc.ranks)
		_, err := cluster.Run(tc.ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
			if op := NewLocalOp(c, a, part); op.runs == nil || op.nGhost == 0 {
				return fmt.Errorf("rank %d: plan %v with %d ghosts, want a plan beside ghost rows", c.Rank(), op.runs, op.nGhost)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d ranks=%d: %v", tc.n, tc.ranks, err)
		}
		checkMulVecDist(t, rng, a, tc.ranks)
	}
}
