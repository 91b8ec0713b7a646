// Package solver implements the Conjugate Gradient method three ways:
// distributed block-row CG over the cluster runtime (the paper's RAPtor
// CG substitute), sequential CG and Jacobi PCG, and preconditioned CGLS
// (CG on the normal equations), which the paper's Section 4 optimizations
// use for localized LI/LSI reconstruction.
package solver

import (
	"fmt"

	"resilience/internal/cluster"
	"resilience/internal/obs"
	"resilience/internal/sparse"
)

// tagSetup is the message tag of the one-time need-list exchange.
const tagSetup = 100

// LocalOp is one rank's view of the distributed matrix: its row block
// with columns remapped to [own | ghost] local indexing, plus the halo
// communication plan. It provides the distributed SpMV y = (A p)_local.
//
// The communication plan requires a structurally symmetric matrix (true
// for the SPD systems CG addresses): rank r needs values from rank o iff
// o needs values from r, so need-lists can be exchanged pairwise.
type LocalOp struct {
	Part *sparse.Partition
	Rank int
	N    int // owned rows

	// localA is this rank's rows A_{p,:} with columns remapped to
	// [own | ghost] — the one copy of them a LocalOp makes. a is the global
	// matrix they came from (shared, read-only), kept so RowBlock can be
	// built if recovery asks for it.
	localA   *sparse.CSR
	a        *sparse.CSR
	rowBlock *sparse.CSR
	// runs is localA's MulVecRuns plan: the whole groups of four rows in
	// which every row is one contiguous run of local columns. A band's
	// rows are, except those that read ghost columns below the block; a
	// stencil's are not, and its operator has no plan (nil).
	runs *sparse.RunPlan

	// The halo plan. neighbors lists the peer ranks, ascending; the
	// per-neighbor slices below are indexed by position in it, so the
	// per-iteration exchange walks them without a lookup. halo moves the
	// values: GatherHalo writes straight into its outgoing slots and reads
	// straight from the neighbors' slots.
	neighbors []int
	sendIdx   [][]int // local row offsets each neighbor needs from us
	// recvOff[i]:recvOff[i+1] are the ghost slots of neighbors[i]'s
	// values, one run in the order it sends them.
	recvOff   []int
	ghostSlot map[int]int // global col -> ghost slot
	nGhost    int
	halo      *cluster.Halo

	xbuf []float64 // [own | ghost] assembled vector
}

// NewLocalOp builds the rank-local operator and performs the one-time
// need-list exchange. Every rank must call it collectively. The matrix a
// is shared read-only across ranks.
func NewLocalOp(c *cluster.Comm, a *sparse.CSR, part *sparse.Partition) *LocalOp {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("solver: non-square matrix %s", a))
	}
	if part.N != a.Rows || part.P != c.Size() {
		panic(fmt.Sprintf("solver: partition %d/%d does not match matrix %d / ranks %d",
			part.N, part.P, a.Rows, c.Size()))
	}
	r := c.Rank()
	lo, hi := part.Range(r)
	op := &LocalOp{
		Part: part,
		Rank: r,
		N:    hi - lo,
		a:    a,
	}

	// Group halo columns by owner. The columns come sorted and block rows
	// are contiguous, so each owner's columns are one run of ghost slots
	// and the owners appear in ascending order; a neighbour's values then
	// land with one copy. The run is checked, not assumed.
	halo := part.HaloCols(a, r)
	op.ghostSlot = make(map[int]int, len(halo))
	for slot, col := range halo {
		op.ghostSlot[col] = slot
		owner := part.Owner(col)
		if n := len(op.neighbors); n == 0 || op.neighbors[n-1] != owner {
			if n > 0 && owner < op.neighbors[n-1] {
				panic(fmt.Sprintf("solver: rank %d's ghost columns are not one run per owner: rank %d's follow rank %d's", r, owner, op.neighbors[n-1]))
			}
			op.neighbors = append(op.neighbors, owner)
			op.recvOff = append(op.recvOff, slot)
		}
	}
	op.nGhost = len(halo)
	op.recvOff = append(op.recvOff, op.nGhost)
	needIdx := make([][]int, len(op.neighbors)) // global cols needed from each neighbor (sorted)
	for i := range needIdx {
		needIdx[i] = halo[op.recvOff[i]:op.recvOff[i+1]]
	}

	// Pairwise exchange of need lists (symmetric neighbor relation) while
	// building the halo plan; what each neighbor asks for becomes the
	// local row offsets gathered into its slot.
	var theirCols [][]int
	op.halo, theirCols = c.NewHalo(tagSetup, op.neighbors, needIdx)
	op.sendIdx = theirCols
	for ni, cols := range theirCols {
		for i, col := range cols {
			if col < lo || col >= hi {
				panic(fmt.Sprintf("solver: rank %d asked for col %d not owned by %d", op.neighbors[ni], col, r))
			}
			cols[i] = col - lo
		}
	}

	// Copy this rank's rows out of a with the columns remapped into
	// [own | ghost] indexing.
	base := a.RowPtr[lo]
	nnz := a.RowPtr[hi] - base
	la := &sparse.CSR{
		Rows:   op.N,
		Cols:   op.N + op.nGhost,
		RowPtr: make([]int, op.N+1),
		ColIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	copy(la.Val, a.Val[base:base+nnz])
	for i := 0; i < op.N; i++ {
		la.RowPtr[i+1] = a.RowPtr[lo+i+1] - base
	}
	for k, col := range a.ColIdx[base : base+nnz] {
		if col >= lo && col < hi {
			la.ColIdx[k] = col - lo
		} else {
			la.ColIdx[k] = op.N + op.ghostSlot[col]
		}
	}
	op.runs = la.PlanRuns()
	// Note: remapping breaks the strictly-increasing column invariant
	// within rows (ghosts land after own columns); SpMV does not require
	// it, and localA is not exposed.
	op.localA = la
	op.xbuf = make([]float64, op.N+op.nGhost)
	return op
}

// RowBlock returns this rank's row block A_{p,:} with global column
// indices, as sparse.Partition.RowBlock extracts it. Only LSI
// reconstruction reads it, so it is built on first use; like the rest of
// a LocalOp it belongs to the rank's own goroutine.
func (op *LocalOp) RowBlock() *sparse.CSR {
	if op.rowBlock == nil {
		op.rowBlock = op.Part.RowBlock(op.a, op.Rank)
	}
	return op.rowBlock
}

// GatherHalo exchanges halo values for the local vector x and returns the
// assembled [own | ghost] buffer (valid until the next call). Every rank
// must call it collectively. c must be the rank's own Comm.
func (op *LocalOp) GatherHalo(c *cluster.Comm, x []float64) []float64 {
	if len(x) != op.N {
		panic(fmt.Sprintf("solver: GatherHalo len(x)=%d, want %d", len(x), op.N))
	}
	if o := c.Observer(); o != nil {
		start := c.Clock()
		defer func() { o.Span(obs.SpanHalo, start, c.Clock()-start) }()
	}
	copy(op.xbuf[:op.N], x)
	slots := op.halo.Slots()
	for ni, idx := range op.sendIdx {
		slot := slots[ni][:len(idx)]
		for i, li := range idx {
			slot[i] = x[li]
		}
	}
	op.halo.Send()
	ghost := op.xbuf[op.N:]
	for ni := range op.neighbors {
		copy(ghost[op.recvOff[ni]:op.recvOff[ni+1]], op.halo.Recv(ni))
	}
	return op.xbuf
}

// MulVecDist computes the local block of the distributed product
// y = A*x, where x and y are this rank's owned blocks: the halo exchange,
// then the SpMV over the assembled [own | ghost] vector, which takes the
// operator's run rows four at a time without gathering (MulVecRuns).
func (op *LocalOp) MulVecDist(c *cluster.Comm, y, x []float64) {
	buf := op.GatherHalo(c, x)
	op.localA.MulVecRuns(y, buf, op.runs)
	c.Compute(op.localA.SpMVFlops())
}

// OffDiagApply computes y = b_local - sum_{j != rank} A_{rank,j} x_j given
// an assembled [own|ghost] buffer from GatherHalo: the right-hand side of
// the LI reconstruction (Eq. 19). Only ghost columns contribute to the
// subtracted sum. Flops are charged to the rank's clock.
func (op *LocalOp) OffDiagApply(c *cluster.Comm, y, bLocal []float64, buf []float64) {
	if len(y) != op.N || len(bLocal) != op.N {
		panic("solver: OffDiagApply dimension mismatch")
	}
	var flops int64
	for i := 0; i < op.N; i++ {
		s := bLocal[i]
		lo, hi := op.localA.RowPtr[i], op.localA.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if col := op.localA.ColIdx[k]; col >= op.N {
				s -= op.localA.Val[k] * buf[col]
				flops += 2
			}
		}
		y[i] = s
	}
	c.Compute(flops)
}
