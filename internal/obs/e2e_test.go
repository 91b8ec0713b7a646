// End-to-end observability tests. These live in package obs_test so they
// can import the public resilience package (a test-only cycle the Go tool
// permits) and drive a full ci-scale resilient solve.
package obs_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"resilience"
	"resilience/internal/obs"
)

// tracedSolve runs the acceptance scenario: LI-DVFS on a ci-scale catalog
// matrix with injected node failures and a recorder attached.
func tracedSolve(t *testing.T, rec *resilience.Recorder, keepSegs bool) *resilience.Report {
	t.Helper()
	a, err := resilience.CatalogMatrix("Andrews", "ci")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := resilience.RHS(a)
	rep, err := resilience.Solve(a, b, resilience.SolveOptions{
		Scheme:            "LI-DVFS",
		Ranks:             32,
		Faults:            3,
		Observer:          rec,
		KeepPowerSegments: keepSegs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("traced solve did not converge (relres %g)", rep.RelRes)
	}
	return rep
}

func TestEndToEndChromeTrace(t *testing.T) {
	rec := resilience.NewRecorder()
	rep := tracedSolve(t, rec, true)

	if rec.Ranks() != 32 {
		t.Fatalf("recorder saw %d ranks, want 32", rec.Ranks())
	}
	if len(rep.Faults) != 3 {
		t.Fatalf("injected %d faults, want 3", len(rep.Faults))
	}

	// Every rank has a timeline, and all spans lie inside the run.
	kinds := map[obs.SpanKind]bool{}
	for r := 0; r < rec.Ranks(); r++ {
		spans := rec.RankSpans(r)
		if len(spans) == 0 {
			t.Errorf("rank %d recorded no spans", r)
			continue
		}
		for _, s := range spans {
			kinds[s.Kind] = true
			if s.Start < 0 || s.Dur <= 0 || s.End() > rep.Time*(1+1e-9) {
				t.Fatalf("rank %d span %v outside [0, %g]", r, s, rep.Time)
			}
		}
	}
	for _, k := range []obs.SpanKind{
		obs.SpanCompute, obs.SpanSend, obs.SpanRecv, obs.SpanWait,
		obs.SpanCollective, obs.SpanHalo, obs.SpanReconstruct,
	} {
		if !kinds[k] {
			t.Errorf("no %v span in a faulty LI-DVFS run", k)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, nil, rec, rep.Meter); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"rank 31"`,     // one track per rank
		`"name":"reconstruct"`, // recovery visible on the timeline
		`"name":"cluster W"`,   // aggregate power counter track
		`"name":"core 0 W"`,    // per-core power counter track
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON lacks %s", want)
		}
	}

	// The retained power segments cover the whole run: no metering holes.
	if gaps := rep.Meter.Gaps(1e-9); len(gaps) != 0 {
		t.Errorf("power trace has %d coverage gaps, first %+v", len(gaps), gaps[0])
	}

	// Counters are coherent: matched message totals, wait time on someone.
	var sent, recv, sentB, recvB int64
	var totalWait float64
	for _, m := range rec.Metrics() {
		sent += m.MsgsSent
		recv += m.MsgsRecv
		sentB += m.BytesSent
		recvB += m.BytesRecv
		totalWait += m.WaitSec
	}
	if sent == 0 || sent != recv || sentB != recvB {
		t.Errorf("message totals unmatched: %d/%d msgs, %d/%d bytes", sent, recv, sentB, recvB)
	}
	if totalWait <= 0 {
		t.Error("no wait time recorded across 32 ranks")
	}
}

// TestEnergyRunToRun pins bitwise run-to-run determinism of the modeled
// energy: the meter reduces per-core sums in sorted core order, so the
// goroutine interleaving of 32 concurrent ranks must not move even the
// last ulp. (Purity comparisons below lean on this.)
func TestEnergyRunToRun(t *testing.T) {
	first := tracedSolve(t, nil, false)
	for i := 0; i < 3; i++ {
		rep := tracedSolve(t, nil, false)
		if rep.Energy != first.Energy || rep.Time != first.Time {
			t.Fatalf("run %d: %v J / %v s, first run %v J / %v s",
				i, rep.Energy, rep.Time, first.Energy, first.Time)
		}
	}
}

// TestObserverPurity is the tentpole guarantee: attaching a recorder must
// not change a single modeled number or solution bit.
func TestObserverPurity(t *testing.T) {
	base := tracedSolve(t, nil, false)
	rec := resilience.NewRecorder()
	obsd := tracedSolve(t, rec, false)

	if base.Time != obsd.Time || base.Energy != obsd.Energy {
		t.Errorf("time/energy drift: %g/%g vs %g/%g",
			base.Time, base.Energy, obsd.Time, obsd.Energy)
	}
	if base.Iters != obsd.Iters || base.Restarts != obsd.Restarts {
		t.Errorf("iteration drift: %d/%d vs %d/%d",
			base.Iters, base.Restarts, obsd.Iters, obsd.Restarts)
	}
	if len(base.History) != len(obsd.History) {
		t.Fatalf("history length drift: %d vs %d", len(base.History), len(obsd.History))
	}
	for i := range base.History {
		if base.History[i] != obsd.History[i] {
			t.Fatalf("history[%d] drift: %g vs %g", i, base.History[i], obsd.History[i])
		}
	}
	for i := range base.Solution {
		if math.Float64bits(base.Solution[i]) != math.Float64bits(obsd.Solution[i]) {
			t.Fatalf("solution[%d] drift: %g vs %g", i, base.Solution[i], obsd.Solution[i])
		}
	}
}
