package resilience

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each regenerating the artifact through the experiment
// runners, plus micro-benchmarks of the core kernels. Scale is selected
// with RES_SCALE (tiny|ci|paper, default tiny so `go test -bench=.`
// completes quickly; use ci to reproduce EXPERIMENTS.md).
//
//	go test -bench=BenchmarkFig5 -benchmem
//	RES_SCALE=ci go test -bench=. -benchtime=1x -timeout 2h

import (
	"fmt"
	"os"
	"testing"

	"resilience/internal/cluster"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/solver"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

func benchScale() string {
	if s := os.Getenv("RES_SCALE"); s != "" {
		return s
	}
	return "tiny"
}

// benchExperiment runs one paper artifact per iteration and reports its
// output on the first run.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(id, scale)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			fmt.Println(res.String())
		}
	}
}

// --- paper artifacts ----------------------------------------------------

func BenchmarkFig1MTBFProjection(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkFig3RecoveryCost(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4CGConstruction(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkTable3Catalog(b *testing.B)           { benchExperiment(b, "tab3") }
func BenchmarkTable4Parallelism(b *testing.B)       { benchExperiment(b, "tab4") }
func BenchmarkFig5IterationsPerMatrix(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6ResidualHistories(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7DVFSSavings(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkTable5ResilienceCost(b *testing.B)    { benchExperiment(b, "tab5") }
func BenchmarkFig8BestScheme(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkTable6ModelValidation(b *testing.B)   { benchExperiment(b, "tab6") }
func BenchmarkFig9WeakScaling(b *testing.B)         { benchExperiment(b, "fig9") }

// --- ablations (extensions beyond the paper) ----------------------------

func BenchmarkAblationCkptInterval(b *testing.B)     { benchExperiment(b, "ablation-interval") }
func BenchmarkAblationLocalTol(b *testing.B)         { benchExperiment(b, "ablation-tol") }
func BenchmarkAblationDVFSFloor(b *testing.B)        { benchExperiment(b, "ablation-dvfs") }
func BenchmarkAblationTMR(b *testing.B)              { benchExperiment(b, "ablation-tmr") }
func BenchmarkAblationJacobiPCG(b *testing.B)        { benchExperiment(b, "ablation-pcg") }
func BenchmarkAblationMultilevelCkpt(b *testing.B)   { benchExperiment(b, "ablation-multilevel") }
func BenchmarkAblationSDCLatency(b *testing.B)       { benchExperiment(b, "ablation-sdc") }
func BenchmarkAblationPipelinedCG(b *testing.B)      { benchExperiment(b, "ablation-pipeline") }
func BenchmarkAblationConstructionCost(b *testing.B) { benchExperiment(b, "ablation-construction") }
func BenchmarkAblationOverlap(b *testing.B)          { benchExperiment(b, "ablation-overlap") }

// --- kernel micro-benchmarks --------------------------------------------

func BenchmarkSolveFaultFree(b *testing.B) {
	a := Laplacian2D(48)
	rhs, _ := RHS(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(a, rhs, SolveOptions{Ranks: 8, Tol: 1e-10})
		if err != nil || !rep.Converged {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWithLIRecovery(b *testing.B) {
	a := Laplacian2D(48)
	rhs, _ := RHS(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(a, rhs, SolveOptions{Scheme: "LI-DVFS", Ranks: 8, Tol: 1e-10, Faults: 3})
		if err != nil || !rep.Converged {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWithCheckpointing(b *testing.B) {
	a := Laplacian2D(48)
	rhs, _ := RHS(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(a, rhs, SolveOptions{Scheme: "CR-M", Ranks: 8, Tol: 1e-10, Faults: 3, CkptEvery: 25})
		if err != nil || !rep.Converged {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpMV(b *testing.B) {
	a := Laplacian2D(128) // 16K rows, ~80K nnz
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i)
	}
	b.SetBytes(int64(8 * a.NNZ()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

// BenchmarkAllreduceScalar measures one scalar allreduce across 4
// simulated ranks per op. The setup cost of the cluster is amortized over
// b.N; steady state must be 0 allocs/op (the scalar fast path never
// touches the heap).
func BenchmarkAllreduceScalar(b *testing.B) {
	b.ReportAllocs()
	_, err := cluster.Run(4, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		for i := 0; i < b.N; i++ {
			c.AllreduceScalarSum(float64(c.Rank()))
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHaloExchange measures one collective halo exchange on the
// distributed operator (4 ranks, 1024-row stencil, two neighbors per
// rank): the per-iteration communication cost every MulVecDist pays.
func BenchmarkHaloExchange(b *testing.B) { benchHaloExchange(b, Laplacian2D(32), 4) }

// BenchmarkHaloExchangeAllToAll is the same exchange where every rank
// neighbors every other, so each op moves p·(p-1) messages and every
// inbox takes posts from p-1 senders: the regime of the paper's small
// dense-banded matrices on many ranks, which the stencil cannot show.
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
func denseCoupled(ranks, rows int) *Matrix {
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
func benchHaloExchange(b *testing.B, a *Matrix, ranks int) {
	part := sparse.NewPartition(a.Rows, ranks)
	b.ReportAllocs()
	_, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		op := solver.NewLocalOp(c, a, part)
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

// benchMulVecDist measures the distributed SpMV on the fused or
// overlapped path; both compute bitwise-identical products, so any
// wall-clock gap between them is pure kernel-dispatch overhead.
func benchMulVecDist(b *testing.B, overlap bool) {
	a := Laplacian2D(32)
	const ranks = 4
	part := sparse.NewPartition(a.Rows, ranks)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		op := solver.NewLocalOp(c, a, part)
		op.SetOverlap(overlap)
		x := make([]float64, op.N)
		y := make([]float64, op.N)
		for i := range x {
			x[i] = float64(i % 13)
		}
		for i := 0; i < b.N; i++ {
			op.MulVecDist(c, y, x)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMulVecDistFused(b *testing.B)   { benchMulVecDist(b, false) }
func BenchmarkMulVecDistOverlap(b *testing.B) { benchMulVecDist(b, true) }

// BenchmarkCGIteration measures one full distributed CG inner iteration
// (halo exchange + SpMV, two dots, two scalar allreduces, the fused
// axpy/dot updates) on 4 ranks per op. The Krylov recurrence is
// re-anchored from a zeroed iterate every 50 iterations with pure
// copies, so the loop runs indefinitely; steady state must be 0
// allocs/op.
func BenchmarkCGIteration(b *testing.B) { benchCGIteration(b, false) }

// BenchmarkCGIterationObserved is the same loop with a span recorder
// attached: the cost of observability when it is on. Span appends
// amortize but are not allocation-free, so only the tracing-off variant
// is part of the 0 allocs/op gate.
func BenchmarkCGIterationObserved(b *testing.B) { benchCGIteration(b, true) }

func benchCGIteration(b *testing.B, observed bool) {
	a := Laplacian2D(32) // 1024 rows
	rhs, _ := RHS(a)
	const ranks = 4
	part := sparse.NewPartition(a.Rows, ranks)
	rt := cluster.NewRuntime(ranks, platform.Default(), power.NewMeter(false))
	if observed {
		rt.SetRecorder(NewRecorder())
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, err := rt.Run(func(c *cluster.Comm) error {
		op := solver.NewLocalOp(c, a, part)
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
