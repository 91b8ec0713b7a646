package main

import (
	"fmt"
	"math/rand"
	"strings"

	"resilience/internal/chaos"
)

// The benchmark's own input generator for serve_hot. It does not reuse
// chaos.NewScenario: a change to the campaign generator must not change
// what this workload sends. Every string is canonical (a chaos.ParseArgs
// fixpoint), so the key the service derives equals the string sent.

// paperSchemes is the eight-scheme pool of the paper's Table 2, pinned
// here so a widened default pool does not change the workloads.
var paperSchemes = []string{"F0", "FI", "LI", "LI-DVFS", "LSI", "LSI-DVFS", "CR-M", "CR-D"}

var faultClasses = []string{"DCE", "DUE", "SDC", "SWO", "SNF", "LNF"}

// genScenarios returns n distinct canonical scenario strings drawn from
// rng: grid 6-12, ranks 1-6, the eight paper schemes, 0-3 faults.
func genScenarios(rng *rand.Rand, n int) ([]string, error) {
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		grid := 6 + rng.Intn(7)
		ranks := 1 + rng.Intn(6)
		var b strings.Builder
		fmt.Fprintf(&b, "-grid %d -ranks %d -scheme %s -tol 1e-10 -ckpt %d -detect %d -seed %d",
			grid, ranks, paperSchemes[rng.Intn(len(paperSchemes))],
			2+rng.Intn(9), rng.Intn(3), 1+rng.Int63n(1<<30))
		iter := 0
		for f, nf := 0, rng.Intn(4); f < nf; f++ {
			// Ascending iterations: the order the canonical key sorts to.
			iter += 1 + rng.Intn(grid)
			sep := ","
			if f == 0 {
				sep = " -faults "
			}
			fmt.Fprintf(&b, "%s%s@%d:r%d", sep, faultClasses[rng.Intn(len(faultClasses))], iter, rng.Intn(ranks))
		}
		s, err := chaos.ParseArgs(b.String())
		if err != nil {
			return nil, fmt.Errorf("generated scenario %q does not parse: %w", b.String(), err)
		}
		if arg := s.Args(); !seen[arg] {
			seen[arg] = true
			out = append(out, arg)
		}
	}
	return out, nil
}

// genZipf returns n indices into [0, uniques) drawn zipf(s = 1.1): a few
// hot keys and a long tail, the shape of a cache-fronted service's
// traffic.
func genZipf(rng *rand.Rand, n, uniques int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(uniques-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
