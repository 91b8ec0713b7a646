package solver

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"resilience/internal/cluster"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/sparse"
)

// haloPinWorkload drives one rank through the halo paths a solve takes:
// a MulVecDist, rank-skewed compute so the ranks fall out of step, three
// back-to-back GatherHalo calls with no collective between them, a second
// MulVecDist on the first one's output and a closing barrier. Everything
// the rank computed is appended to out.
func haloPinWorkload(c *cluster.Comm, op *LocalOp, out *[]float64) {
	lo, _ := op.Part.Range(c.Rank())
	x := make([]float64, op.N)
	for i := range x {
		x[i] = float64((lo+i)%17) - 7.5 + 0.125*float64(c.Rank())
	}
	y := make([]float64, op.N)
	z := make([]float64, op.N)
	op.MulVecDist(c, y, x)
	*out = append(*out, y...)
	c.Compute(int64(1000 * (1 + c.Rank()%5)))
	for _, v := range [][]float64{x, y, x} {
		*out = append(*out, op.GatherHalo(c, v)...)
		c.Compute(int64(300 * (1 + (c.Rank()+1)%3)))
	}
	op.MulVecDist(c, z, y)
	*out = append(*out, z...)
	*out = append(*out, c.Clock())
	c.Barrier()
}

// haloPinDigest runs haloPinWorkload on p ranks with a recorder attached
// and returns the SHA-256 of every rank's final clock, counters, span list
// and computed values, and the metered total energy, all as exact bits.
func haloPinDigest(t *testing.T, a *sparse.CSR, p int) string {
	t.Helper()
	part := sparse.NewPartition(a.Rows, p)
	meter := power.NewMeter(false)
	rt := cluster.NewRuntime(p, 0, platform.Default(), meter)
	rec := obs.NewRecorder()
	rt.SetRecorder(rec)
	clocks := make([]float64, p)
	vals := make([][]float64, p)
	_, err := rt.Run(func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		haloPinWorkload(c, op, &vals[c.Rank()])
		clocks[c.Rank()] = c.Clock()
		return nil
	})
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "energy %x\n", math.Float64bits(meter.TotalEnergy()))
	ms := rec.Metrics()
	for r := 0; r < p; r++ {
		m := ms[r]
		fmt.Fprintf(h, "rank %d clock %x msgs %d/%d bytes %d/%d\n", r, math.Float64bits(clocks[r]),
			m.MsgsSent, m.MsgsRecv, m.BytesSent, m.BytesRecv)
		for _, s := range rec.RankSpans(r) {
			fmt.Fprintf(h, "span %s %x %x\n", s.Kind, math.Float64bits(s.Start), math.Float64bits(s.Dur))
		}
		for _, v := range vals[r] {
			fmt.Fprintf(h, "%x\n", math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestHaloExchangePinned pins the modeled halo exchange end to end: for
// a matrix coupling every rank to every other and a banded one coupling
// near ranks only, at 1, 3, 16 and 32 ranks,
// the digest of clocks, energy, message counters, spans and values must
// be the committed one. A change to how halo values move must leave all
// of it alone.
func TestHaloExchangePinned(t *testing.T) {
	banded := matgen.BandedSPD(matgen.BandedOpts{N: 640, NNZPerRow: 41, Kappa: 50, Scatter: 0.02, Seed: 3})
	for _, tc := range []struct {
		name string
		a    func(p int) *sparse.CSR
	}{
		{"dense", func(p int) *sparse.CSR { return denseCoupled(p, 7) }},
		{"banded", func(int) *sparse.CSR { return banded }},
	} {
		for _, p := range []int{1, 3, 16, 32} {
			key := fmt.Sprintf("%s/p%d", tc.name, p)
			got := haloPinDigest(t, tc.a(p), p)
			if want := haloPins[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}

var haloPins = map[string]string{
	"dense/p1":   "3faad963bfc739bf1dd48c75cac4e2ce6d7558da499ade2e613aaa3765d390d9",
	"dense/p3":   "c0dd6998d24d86b620962e9eaf29ad35475659fceaaff1d4ecf60e0801f0dbf5",
	"dense/p16":  "81cfd7bde74d000c07f88bd7eb20ba63c4aefc8cb6e5c0887afdf41f010a9788",
	"dense/p32":  "203a468e1bec15466a680e0c0475b75e8f8b307fd73a6223daa437a8393de228",
	"banded/p1":  "683e57d3cc951d7e919a618769b001b77a87d545a3d0c06bcf141b8dfb39efaf",
	"banded/p3":  "dffe63e915d12555a632354f5805112546027d3faed5d3994f81aefef890f199",
	"banded/p16": "9cd030e70e621db407550760b426df07d544fd0e86335101ac6116b7568532e0",
	"banded/p32": "fbe626ae00250abd78afb534c12f161ed6041fbfbeeb5d51bf947fca2763ad08",
}

// TestGhostRunsContiguous: NewLocalOp receives each neighbour's values
// with one copy into one run of ghost slots. The runs must partition the
// ghost slots in neighbour order, every column of a run must be owned by
// its neighbour and ascend, and the assembled [own | ghost] vector must
// hold each ghost column's global value — on the near all-to-all halo of
// bcsstk06 over 16 ranks and on a 2-D grid.
func TestGhostRunsContiguous(t *testing.T) {
	spec, err := matgen.Lookup("bcsstk06")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		p    int
	}{
		{"bcsstk06@ci", spec.Generate(matgen.CI), 16},
		{"grid12", matgen.Laplacian2D(12), 5},
	} {
		part := sparse.NewPartition(tc.a.Rows, tc.p)
		xg := make([]float64, tc.a.Rows)
		for i := range xg {
			xg[i] = float64(i) + 0.5
		}
		_, err := cluster.Run(tc.p, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
			op := NewLocalOp(c, tc.a, part)
			col := make([]int, op.nGhost) // ghost slot -> global column
			for g, s := range op.ghostSlot {
				col[s] = g
			}
			if len(op.recvOff) != len(op.neighbors)+1 || op.recvOff[0] != 0 || op.recvOff[len(op.neighbors)] != op.nGhost {
				return fmt.Errorf("rank %d: runs %v do not cover %d ghost slots of %d neighbours", c.Rank(), op.recvOff, op.nGhost, len(op.neighbors))
			}
			for ni, o := range op.neighbors {
				lo, hi := op.recvOff[ni], op.recvOff[ni+1]
				if lo >= hi {
					return fmt.Errorf("rank %d: empty run for neighbour %d", c.Rank(), o)
				}
				for s := lo; s < hi; s++ {
					if part.Owner(col[s]) != o || (s > lo && col[s] <= col[s-1]) {
						return fmt.Errorf("rank %d: ghost slot %d (col %d) breaks neighbour %d's run", c.Rank(), s, col[s], o)
					}
				}
			}
			lo, hi := part.Range(c.Rank())
			buf := op.GatherHalo(c, xg[lo:hi])
			for s, g := range col {
				if buf[op.N+s] != xg[g] {
					return fmt.Errorf("rank %d: ghost slot %d holds %v, want column %d's %v", c.Rank(), s, buf[op.N+s], g, xg[g])
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
