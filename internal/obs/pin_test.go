// The Chrome-trace pin drives a real solve, so it lives in package
// obs_test, which may import the public resilience package.
package obs_test

import (
	"bytes"
	"os"
	"testing"

	"resilience"
	"resilience/internal/obs"
)

// mergedTraceGolden holds the Chrome-trace document of pinnedTrace.
const mergedTraceGolden = "testdata/merged_trace.golden.json"

// pinnedTrace renders the wall-clock span fixture together with a small
// recorded run — four ranks, one node failure, LI, power segments kept —
// as one Chrome-trace document.
func pinnedTrace(t *testing.T) []byte {
	t.Helper()
	a := resilience.Laplacian2D(4)
	b, _ := resilience.RHS(a)
	rec := resilience.NewRecorder()
	rep, err := resilience.Solve(a, b, resilience.SolveOptions{
		Scheme: "LI", Ranks: 4, Faults: 1, Tol: 1e-8, Seed: 3,
		Observer: rec, KeepPowerSegments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, obs.SpansFixture(), rec, rep.Meter); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergedTracePinned: the document holding both clock domains is
// byte-identical to the committed golden, and passes the validator.
func TestMergedTracePinned(t *testing.T) {
	want, err := os.ReadFile(mergedTraceGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := pinnedTrace(t)
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from %s:\n%s", mergedTraceGolden, got)
	}
	if err := obs.ValidateChromeTrace(got); err != nil {
		t.Error(err)
	}
}
