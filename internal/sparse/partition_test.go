package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPartitionSizes(t *testing.T) {
	pt := NewPartition(10, 3)
	if pt.Size(0) != 4 || pt.Size(1) != 3 || pt.Size(2) != 3 {
		t.Errorf("sizes %d %d %d", pt.Size(0), pt.Size(1), pt.Size(2))
	}
	if pt.Starts[3] != 10 {
		t.Error("Starts must end at N")
	}
}

// Property: every row is owned by exactly the block whose range covers it.
func TestQuickOwnerConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		p := 1 + rng.Intn(16)
		if p > n {
			p = n
		}
		pt := NewPartition(n, p)
		for i := 0; i < n; i++ {
			o := pt.Owner(i)
			lo, hi := pt.Range(o)
			if i < lo || i >= hi {
				return false
			}
		}
		// Sizes sum to n and are balanced within 1.
		minSz, maxSz := n, 0
		total := 0
		for b := 0; b < p; b++ {
			s := pt.Size(b)
			total += s
			if s < minSz {
				minSz = s
			}
			if s > maxSz {
				maxSz = s
			}
		}
		return total == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSlice(t *testing.T) {
	pt := NewPartition(6, 2)
	x := []float64{0, 1, 2, 3, 4, 5}
	s := pt.Slice(x, 1)
	if len(s) != 3 || s[0] != 3 {
		t.Errorf("Slice got %v", s)
	}
	s[0] = 99
	if x[3] != 99 {
		t.Error("Slice must alias the input")
	}
}

// blockSPD builds a small random symmetric matrix for partition tests.
func blockSPD(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 10)
		for d := 1; d <= 3; d++ {
			if j := i + d; j < n && rng.Float64() < 0.6 {
				coo.AddSym(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

// TestBlockDecomposition checks that RowBlock is DiagBlock plus the
// entries in remote columns, by applying both to a vector: the remote
// part is RowBlock applied to x with the owned entries zeroed.
func TestBlockDecomposition(t *testing.T) {
	n, p := 37, 5
	a := blockSPD(n, 1)
	pt := NewPartition(n, p)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	for b := 0; b < p; b++ {
		lo, hi := pt.Range(b)
		rb := pt.RowBlock(a, b)
		db := pt.DiagBlock(a, b)
		remote := 0
		for _, j := range rb.ColIdx {
			if j < lo || j >= hi {
				remote++
			}
		}
		if rb.NNZ() != db.NNZ()+remote {
			t.Fatalf("block %d: nnz %d != %d + %d", b, rb.NNZ(), db.NNZ(), remote)
		}
		yr := make([]float64, hi-lo)
		rb.MulVec(yr, x)
		yd := make([]float64, hi-lo)
		db.MulVec(yd, x[lo:hi])
		xo := append([]float64(nil), x...)
		for i := lo; i < hi; i++ {
			xo[i] = 0
		}
		yo := make([]float64, hi-lo)
		rb.MulVec(yo, xo)
		for i := range yr {
			if math.Abs(yr[i]-(yd[i]+yo[i])) > 1e-12 {
				t.Fatalf("block %d row %d: %g != %g + %g", b, i, yr[i], yd[i], yo[i])
			}
		}
	}
}

// TestColBlockMatchesTransposedRowBlock verifies the symmetric-matrix
// identity A_{:,p} == (A_{p,:})ᵀ the optimized LSI path relies on.
func TestColBlockMatchesTransposedRowBlock(t *testing.T) {
	n, p := 29, 4
	a := blockSPD(n, 2)
	pt := NewPartition(n, p)
	for b := 0; b < p; b++ {
		cb := pt.ColBlock(a, b)
		rbT := pt.RowBlock(a, b).Transpose()
		if cb.Rows != rbT.Rows || cb.Cols != rbT.Cols || cb.NNZ() != rbT.NNZ() {
			t.Fatalf("block %d: shape mismatch", b)
		}
		for i := 0; i < cb.Rows; i++ {
			for j := 0; j < cb.Cols; j++ {
				if math.Abs(cb.At(i, j)-rbT.At(i, j)) > 1e-14 {
					t.Fatalf("block %d (%d,%d): %g != %g", b, i, j, cb.At(i, j), rbT.At(i, j))
				}
			}
		}
	}
}

func TestHaloCols(t *testing.T) {
	// Tridiagonal: each interior block needs exactly its two boundary
	// neighbors.
	n, p := 12, 3
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.AddSym(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	pt := NewPartition(n, p)
	halo := pt.HaloCols(a, 1) // rows 4..7
	want := []int{3, 8}
	if len(halo) != len(want) {
		t.Fatalf("halo %v want %v", halo, want)
	}
	for i := range want {
		if halo[i] != want[i] {
			t.Fatalf("halo %v want %v", halo, want)
		}
	}
	// Edge blocks have one neighbor.
	if h := pt.HaloCols(a, 0); len(h) != 1 || h[0] != 4 {
		t.Errorf("block 0 halo %v", h)
	}
}

// Property: halo columns are exactly the off-diagonal block's column
// support.
func TestQuickHaloMatchesOffDiag(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		p := 2 + rng.Intn(5)
		a := blockSPD(n, seed)
		pt := NewPartition(n, p)
		for b := 0; b < p; b++ {
			halo := pt.HaloCols(a, b)
			set := map[int]bool{}
			for _, c := range halo {
				set[c] = true
			}
			lo, hi := pt.Range(b)
			seen := map[int]bool{}
			for _, c := range pt.RowBlock(a, b).ColIdx {
				if c >= lo && c < hi {
					continue
				}
				seen[c] = true
				if !set[c] {
					return false
				}
			}
			if len(seen) != len(set) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPartitionPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPartition(-1, 2) },
		func() { NewPartition(4, 0) },
		func() { NewPartition(4, 2).Owner(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
