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
// time — the reference both distributed kernels must match bit for bit.
func refMulVec(m *sparse.CSR, y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// checkKernelEquivalence builds a fused and an overlapped LocalOp for a on
// every rank and requires: the interior/boundary row lists partition the
// owned rows with their flops summing to the fused kernel's; the lazily
// built RowBlock equals the partition's extraction field for field; and
// over three rounds (distinct vectors, so stale ghosts or in-flight
// aliasing in the reused buffers would show) overlapped == fused ==
// refMulVec bitwise. wantInterior, when non-nil, pins each rank's interior
// row count.
func checkKernelEquivalence(t *testing.T, rng *rand.Rand, a *sparse.CSR, ranks int, wantInterior []int) {
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
		fused := NewLocalOp(c, a, part)
		over := NewLocalOp(c, a, part)
		over.SetOverlap(true)
		if got := len(fused.interior.rows) + len(fused.boundary.rows); got != fused.N {
			return fmt.Errorf("rank %d: interior+boundary rows %d != %d owned", c.Rank(), got, fused.N)
		}
		if wantInterior != nil && len(fused.interior.rows) != wantInterior[c.Rank()] {
			return fmt.Errorf("rank %d: %d interior rows, want %d", c.Rank(), len(fused.interior.rows), wantInterior[c.Rank()])
		}
		if got := fused.interior.flops() + fused.boundary.flops(); got != fused.localA.SpMVFlops() {
			return fmt.Errorf("rank %d: split flops %d != fused %d", c.Rank(), got, fused.localA.SpMVFlops())
		}
		rb := fused.RowBlock()
		if want := part.RowBlock(a, c.Rank()); !reflect.DeepEqual(rb, want) {
			return fmt.Errorf("rank %d: RowBlock() = %+v, partition extracts %+v", c.Rank(), rb, want)
		}
		if fused.RowBlock() != rb {
			return fmt.Errorf("rank %d: RowBlock() rebuilt the block on its second call", c.Rank())
		}
		lo, _ := part.Range(c.Rank())
		y1 := make([]float64, fused.N)
		y2 := make([]float64, over.N)
		for r, x := range xs {
			xl := part.Slice(x, c.Rank())
			fused.MulVecDist(c, y1, xl)
			over.MulVecDist(c, y2, xl)
			for i := 0; i < fused.N; i++ {
				if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
					return fmt.Errorf("rank %d round %d: overlap row %d = %x, fused = %x",
						c.Rank(), r, lo+i, math.Float64bits(y2[i]), math.Float64bits(y1[i]))
				}
				if math.Float64bits(y1[i]) != math.Float64bits(yRefs[r][lo+i]) {
					return fmt.Errorf("rank %d round %d: fused row %d = %x, reference = %x",
						c.Rank(), r, lo+i, math.Float64bits(y1[i]), math.Float64bits(yRefs[r][lo+i]))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("n=%d ranks=%d: %v", n, ranks, err)
	}
}

// TestMulVecDistOverlapBitwise pins the tentpole equivalence: the
// overlapped distributed SpMV produces bitwise-identical results to the
// fused kernel (and to the sequential reference product) over random
// structurally symmetric matrices and partitions, across repeated
// applications that reuse the operators' internal buffers.
func TestMulVecDistOverlapBitwise(t *testing.T) {
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
		checkKernelEquivalence(t, rng, randSymCSR(rng, tc.n, tc.extra), tc.ranks, nil)
	}
}

// TestMulVecDistRowListShapes drives the row-list kernels through the
// shapes a random matrix rarely produces: a row with no entries (interior:
// it depends on nothing), a rank on which every row touches a ghost (empty
// interior list), and a single rank that owns everything (empty boundary
// list).
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
	checkKernelEquivalence(t, rng, holed, 3, nil)

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
	checkKernelEquivalence(t, rng, cross, 2, []int{0, 0})

	// One rank owns every row: nothing is a ghost.
	checkKernelEquivalence(t, rng, randSymCSR(rng, 20, 3), 1, []int{20})
}

// TestOverlapNeverSlower checks the clock model end-to-end on a stencil:
// an overlapped CG solve's modeled time never exceeds the fused solve's,
// and the iterates match bitwise.
func TestOverlapNeverSlower(t *testing.T) {
	a := matgen.Laplacian2D(24)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	for _, ranks := range []int{2, 4, 8} {
		part := sparse.NewPartition(a.Rows, ranks)
		var tFused, tOver float64
		var hFused, hOver []float64
		for _, overlap := range []bool{false, true} {
			var hist []float64
			maxClock, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
				res, err := CG(c, a, b, part, Options{Tol: 1e-10, MaxIters: 10 * a.Rows, Overlap: overlap})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					hist = res.History
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if overlap {
				tOver, hOver = maxClock, hist
			} else {
				tFused, hFused = maxClock, hist
			}
		}
		if tOver > tFused {
			t.Errorf("ranks=%d: overlapped solve slower than fused: %g > %g", ranks, tOver, tFused)
		}
		if len(hFused) != len(hOver) {
			t.Fatalf("ranks=%d: history lengths differ: %d vs %d", ranks, len(hFused), len(hOver))
		}
		for i := range hFused {
			if math.Float64bits(hFused[i]) != math.Float64bits(hOver[i]) {
				t.Fatalf("ranks=%d: residual history diverges at iteration %d", ranks, i)
			}
		}
	}
}
