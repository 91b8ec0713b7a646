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
func haloPinDigest(t *testing.T, a *sparse.CSR, p int, overlap bool) string {
	t.Helper()
	part := sparse.NewPartition(a.Rows, p)
	meter := power.NewMeter(false)
	rt := cluster.NewRuntime(p, platform.Default(), meter)
	rec := obs.NewRecorder()
	rt.SetRecorder(rec)
	clocks := make([]float64, p)
	vals := make([][]float64, p)
	_, err := rt.Run(func(c *cluster.Comm) error {
		op := NewLocalOp(c, a, part)
		op.SetOverlap(overlap)
		haloPinWorkload(c, op, &vals[c.Rank()])
		clocks[c.Rank()] = c.Clock()
		return nil
	})
	if err != nil {
		t.Fatalf("p=%d overlap=%v: %v", p, overlap, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "energy %x\n", math.Float64bits(meter.TotalEnergy()))
	ms := rec.Metrics()
	for r := 0; r < p; r++ {
		m := ms[r]
		fmt.Fprintf(h, "rank %d clock %x msgs %d/%d bytes %d/%d\n", r, math.Float64bits(clocks[r]),
			m.MsgsSent, m.MsgsRecv, m.BytesSent, m.BytesRecv)
		for _, s := range rec.RankSpans(r) {
			fmt.Fprintf(h, "span %d %x %x\n", s.Kind, math.Float64bits(s.Start), math.Float64bits(s.Dur))
		}
		for _, v := range vals[r] {
			fmt.Fprintf(h, "%x\n", math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestHaloExchangePinned pins the modeled halo exchange end to end: for
// a matrix coupling every rank to every other and a banded one coupling
// near ranks only, in both MulVecDist modes and at 1, 3, 16 and 32 ranks,
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
		for _, mode := range []string{"fused", "overlap"} {
			for _, p := range []int{1, 3, 16, 32} {
				key := fmt.Sprintf("%s/%s/p%d", tc.name, mode, p)
				got := haloPinDigest(t, tc.a(p), p, mode == "overlap")
				if want := haloPins[key]; got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}

var haloPins = map[string]string{
	"dense/fused/p1":     "d347b1dcc61d8222aab4120675a380f7e8b6bdb6e6e77801a9b1b2e515bdb121",
	"dense/fused/p3":     "cc75e950ec1899778728f914e95d3e25a57415e92075a6772df4622b6983b7cb",
	"dense/fused/p16":    "75b67da667d2c50a0fcc571f6d4297f4591341022677215393502ef68609e867",
	"dense/fused/p32":    "99915ee91d40d1bc972c2b7f2de165df8794700637585c2f5e175d5aa937332a",
	"dense/overlap/p1":   "18898217933d3ced40674e060594ffe93c9cd979b55ecbacaa94320d8ff100aa",
	"dense/overlap/p3":   "3036a440c2175ccfca1f0cf65b9b7f82d4d48f69fd94a0e8e6be7f4fc28a131b",
	"dense/overlap/p16":  "ae440520cb5684d1df3802561167d109e0def7a0caebd1e99167358316cac548",
	"dense/overlap/p32":  "b223e2980fdfede81e3754c971b95da11c370471b55095e14fde7b748e5ac2f4",
	"banded/fused/p1":    "b990078d6a6f5d7b9bfad1054e269d8c1757c22121c997499f1708452c6cdd60",
	"banded/fused/p3":    "964abe46ea659ac9dce5782d75339d710d75c3f836f3aec6f374df7cf3dff9a3",
	"banded/fused/p16":   "dfbdfaca378dd839dabf669ec884b63454472b6ab1cdf070a477745532cd463a",
	"banded/fused/p32":   "e41cde16be7d1ff2c67650aa2ba308853e88d80d11d5beda945fc148bc882c6a",
	"banded/overlap/p1":  "112555117639ad2d2dadb56a7e10603363fc0e8e2f8cb9abc85212211160d981",
	"banded/overlap/p3":  "24386495f7a5b060034cc9346876bd528b93b2d2ff0de36bd8479dda8e6aa807",
	"banded/overlap/p16": "1b60e5ac2038114949f31ec6411420d0de14171985c45b64f0052c7eae80c652",
	"banded/overlap/p32": "5340f92111946f60a8ee7e11faf84c7ad2d8b8d50f96e0c400e2a2034beee67e",
}
