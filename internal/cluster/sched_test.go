package cluster

import (
	"fmt"
	"runtime"
	"testing"
)

// forceTokens makes every runtime started until restore run on w
// execution tokens (at most one per rank), whatever its operator size and
// the host's cores.
func forceTokens(w int) (restore func()) {
	old := forcedTokens.Swap(int32(w))
	return func() { forcedTokens.Store(old) }
}

// tokenCounts is the W ∈ {1, 2, p} the token-count loops run: one token,
// the smallest split, and one token per rank.
func tokenCounts(p int) []int {
	ws := []int{1}
	for _, w := range []int{2, p} {
		if w <= p && w > ws[len(ws)-1] {
			ws = append(ws, w)
		}
	}
	return ws
}

// forTokens runs test once per count of tokenCounts(p), as subtests.
func forTokens(t *testing.T, p int, test func(t *testing.T)) {
	t.Helper()
	for _, w := range tokenCounts(p) {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			defer forceTokens(w)()
			test(t)
		})
	}
}

// TestTokenRule pins the derived token count, W = min(ranks, cores,
// ⌈nnz/grainNNZ⌉), on a two-core host for the inputs whose count the
// benchmark and the allocation gate rely on, and on a one-core host.
func TestTokenRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		input      string
		ranks, nnz int
		want       int
	}{
		{"bcsstk16 at ci scale (solve_kernel)", 4, 240794, 2},
		{"bcsstk06 at ci scale (solve_comm)", 16, 7686, 1},
		{"a 10x10 chaos grid (fleet_cold)", 4, 460, 1},
		{"Laplacian2D(32) (BenchmarkCGIteration/W=1)", 4, 4992, 1},
		{"Laplacian2D(64) (BenchmarkCGIteration/W=2)", 4, 20224, 2},
		{"a 1024-row band (BenchmarkCGIteration/W=2,banded)", 4, 59546, 2},
		{"no known operator (cluster.Run)", 4, 0, 1},
		{"one rank", 1, 240794, 1},
	} {
		if w := tokens(c.ranks, c.nnz); w != c.want {
			t.Errorf("%s: %d ranks, %d nonzeros: W=%d, want %d", c.input, c.ranks, c.nnz, w, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if w := tokens(4, 240794); w != 1 {
		t.Errorf("bcsstk16 at ci scale on one core: W=%d, want 1", w)
	}
}
