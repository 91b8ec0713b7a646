package chaos

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestESRTwoRankSimultaneousZeroRollback is the acceptance scenario for
// exact state reconstruction: two ranks fail hard at the same iteration
// boundary, the full nine-invariant battery (with the determinism
// recheck) passes, and the run finishes with zero restarts — both
// failures were reconstructed exactly, no iteration was rolled back or
// repeated.
func TestESRTwoRankSimultaneousZeroRollback(t *testing.T) {
	s, err := ParseArgs("-grid 8 -ranks 4 -scheme ESR -tol 1e-10 -seed 3 -faults SNF@7:r1,SNF@7:r2")
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(Options{Recheck: true})
	res := rn.Run(0, s)
	if res.Failed() {
		t.Fatalf("invariant battery failed: %s", res.Line())
	}
	rep := res.Report
	if !rep.Converged {
		t.Fatalf("did not converge: relres %g after %d iters", rep.RelRes, rep.Iters)
	}
	if rep.Restarts != 0 {
		t.Errorf("ESR restarted %d times; 2-rank reconstruction must not roll back", rep.Restarts)
	}
	if len(rep.Faults) != 2 || rep.Faults[0].Iter != rep.Faults[1].Iter {
		t.Errorf("expected two same-iteration faults in the report, got %v", rep.Faults)
	}
	// Zero rollback also means zero extra iterations beyond the exact
	// run's: compare against the fault-free baseline on the same system.
	ff, err := rn.faultFree(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iters != ff.Iters {
		t.Errorf("ESR took %d iters vs %d fault-free; exact reconstruction must not add iterations",
			rep.Iters, ff.Iters)
	}
}

// TestDefaultSchemesCoverExtensions pins the widened campaign pool: the
// fleet and chaos gates exercise ESR and LCR alongside the original
// eight, and every pooled name parses.
func TestDefaultSchemesCoverExtensions(t *testing.T) {
	pool := DefaultSchemes()
	if len(pool) != 10 {
		t.Fatalf("default pool has %d schemes, want 10: %v", len(pool), pool)
	}
	joined := strings.Join(pool, ",")
	for _, want := range []string{"ESR", "LCR"} {
		if !strings.Contains(joined, want) {
			t.Errorf("default pool missing %s: %v", want, pool)
		}
	}
	for _, name := range pool {
		if _, err := ParseSchemeName(name); err != nil {
			t.Errorf("pooled scheme %q does not parse: %v", name, err)
		}
	}
	// A scenario needs a recovery scheme: the fault-free baseline and the
	// empty name are rejected, in the words HTTP 400 bodies carry.
	for _, name := range []string{"FF", " ff ", "", "nope"} {
		_, err := ParseSchemeName(name)
		if want := fmt.Sprintf("chaos: unknown scheme %q", name); err == nil || err.Error() != want {
			t.Errorf("ParseSchemeName(%q) error = %v, want %s", name, err, want)
		}
	}
}
