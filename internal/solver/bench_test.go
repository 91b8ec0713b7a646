package solver

import (
	"fmt"
	"runtime"
	"testing"

	"resilience/internal/cluster"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// The allocation pins of the distributed hot path. scripts/check.sh gates
// BenchmarkCGIteration and BenchmarkHaloExchangeAllToAll at 0 allocs/op;
// timings are the business of the repository benchmark (go run ./bench).

// BenchmarkHaloExchangeAllToAll is one collective halo exchange where
// every rank neighbors every other, so each op moves p·(p-1) messages and
// every inbox takes posts from p-1 senders: the regime of the paper's
// small dense-banded matrices on many ranks, which a stencil cannot show.
// Steady state must be 0 allocs/op.
func BenchmarkHaloExchangeAllToAll(b *testing.B) {
	for _, ranks := range []int{16, 32} {
		b.Run(fmt.Sprintf("p%d", ranks), func(b *testing.B) {
			benchHaloExchange(b, denseCoupled(ranks, 26), ranks)
		})
	}
}

// denseCoupled returns a structurally symmetric matrix of ranks·rows
// rows in which every row has one entry in each rank's block of columns,
// so under a block-row partition every rank needs halo values from every
// other.
func denseCoupled(ranks, rows int) *sparse.CSR {
	n := ranks * rows
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for blk := 0; blk < ranks; blk++ {
			j := blk*rows + i%rows
			v := -1.0
			if j == i {
				v = float64(ranks)
			}
			coo.Add(i, j, v)
		}
	}
	return coo.ToCSR()
}

// benchHaloExchange times b.N halo exchanges of a on the given number of
// ranks. Operator setup and enough warm-up exchanges to fill every
// queue's buffer free list happen before the timer (and the allocation
// count) is reset.
func benchHaloExchange(b *testing.B, a *sparse.CSR, ranks int) {
	part := sparse.NewPartition(a.Rows, ranks)
	b.ReportAllocs()
	_, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		x := make([]float64, op.N)
		for i := range x {
			x[i] = float64(i % 13)
		}
		for i := 0; i < 100; i++ {
			op.GatherHalo(c, x)
		}
		// Only rank 0 touches b, between two barriers that order it
		// against every rank's timed loop.
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			op.GatherHalo(c, x)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCGIteration measures one full distributed CG inner iteration
// (halo exchange + SpMV, two dots, two scalar allreduces, the fused
// axpy/dot updates) on 4 ranks per op, once per side of the runtime's
// token rule: W=1 on a 1024-row Laplacian, below the rule's grain, and
// W=2 on a 4096-row one, above it, with at least two cores to lend; and
// once on a 1024-row band of 59 entries per row, also W=2, whose
// operators take the run kernel (a stencil's never do). TestTokenRule in
// internal/cluster pins that these inputs get those counts. The Krylov
// recurrence is re-anchored from a zeroed iterate every 50 iterations
// with pure copies, so the loop runs indefinitely; steady state must be
// 0 allocs/op on all three.
func BenchmarkCGIteration(b *testing.B) {
	b.Run("W=1", func(b *testing.B) { benchCGIteration(b, matgen.Laplacian2D(32), false) })
	b.Run("W=2", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		benchCGIteration(b, matgen.Laplacian2D(64), false)
	})
	b.Run("W=2,banded", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		benchCGIteration(b, matgen.BandedSPD(matgen.BandedOpts{N: 1024, NNZPerRow: 59, Kappa: 1e4, Seed: 1}), false)
	})
}

// BenchmarkCGIterationObserved is the W=1 loop with a span recorder
// attached: the cost of observability when it is on. Span appends
// amortize but are not allocation-free, so only the tracing-off variant
// is part of the 0 allocs/op gate.
func BenchmarkCGIterationObserved(b *testing.B) {
	benchCGIteration(b, matgen.Laplacian2D(32), true)
}

func benchCGIteration(b *testing.B, a *sparse.CSR, observed bool) {
	rhs, _ := matgen.RHS(a)
	const ranks = 4
	part := sparse.NewPartition(a.Rows, ranks)
	rt := cluster.NewRuntime(ranks, a.NNZ(), platform.Default(), power.NewMeter(false))
	if observed {
		rt.SetRecorder(obs.NewRecorder())
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, err := rt.Run(func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		n := op.N
		bl := make([]float64, n)
		copy(bl, part.Slice(rhs, c.Rank()))
		x := make([]float64, n)
		r := make([]float64, n)
		p := make([]float64, n)
		q := make([]float64, n)
		restart := func() float64 {
			vec.Zero(x)
			op.MulVecDist(c, r, x)
			vec.Sub(r, bl, r)
			copy(p, r)
			return c.AllreduceScalarSum(vec.Dot(r, r))
		}
		rho := restart()
		for i := 0; i < b.N; i++ {
			if i%50 == 49 {
				rho = restart()
			}
			op.MulVecDist(c, q, p)
			pq := c.AllreduceScalarSum(vec.Dot(p, q))
			alpha := rho / pq
			vec.Axpy(alpha, p, x)
			rhoNew := c.AllreduceScalarSum(vec.AxpyDot(-alpha, q, r))
			vec.Xpby(r, rhoNew/rho, p)
			rho = rhoNew
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
