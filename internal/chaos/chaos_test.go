package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resilience/internal/core"
	"resilience/internal/fault"
)

// TestScenarioArgsRoundTrip: Args/ParseArgs are exact inverses over
// randomly generated scenarios. Each sub-test is named by its derived
// seed so a failure replays with -run 'TestScenarioArgsRoundTrip/seed=N'.
func TestScenarioArgsRoundTrip(t *testing.T) {
	for i := 0; i < 200; i++ {
		seed := int64(1) + int64(i)*SeedStride
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := NewScenario(rand.New(rand.NewSource(seed)), Options{})
			args := s.Args()
			back, err := ParseArgs(args)
			if err != nil {
				t.Fatalf("ParseArgs(%q): %v", args, err)
			}
			if back.Args() != args {
				t.Fatalf("round trip changed the scenario:\n in: %s\nout: %s", args, back.Args())
			}
		})
	}
}

func TestParseArgsRejectsInvalid(t *testing.T) {
	cases := []string{
		"-grid 1",                       // grid too small
		"-grid 8 -ranks 0",              // no ranks
		"-grid 3 -ranks 10",             // ranks > n
		"-scheme NOPE",                  // unknown scheme
		"-tol 0",                        // tolerance out of range
		"-tol 2",                        // tolerance out of range
		"-faults XXX@1:r0",              // unknown class
		"-faults SNF@0:r0",              // iteration < 1
		"-ranks 2 -faults SNF@1:r5",     // fault rank out of range
		"-faults SNF@1",                 // missing rank
		"-wat 3",                        // unknown flag
		"-grid",                         // missing value
		"-ckpt -1",                      // negative interval
		"-detect 1000",                  // delay out of range
		"-faults SNF@999999999999:r0",   // iteration past any budget
		"-grid 8 -ranks 4 -seed banana", // non-numeric
	}
	for _, c := range cases {
		if _, err := ParseArgs(c); err == nil {
			t.Errorf("ParseArgs(%q) accepted an invalid scenario", c)
		}
	}
}

func TestParseArgsDefaults(t *testing.T) {
	s, err := ParseArgs("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Grid != 8 || s.Ranks != 4 || s.Scheme != "LI" || s.Tol != 1e-10 {
		t.Fatalf("unexpected defaults: %+v", s)
	}
}

// TestCampaignInvariantsHold is the package's core property test: a
// seeded mixed-scheme campaign with up to 3 overlapping faults per
// scenario passes the full invariant battery, including the rerun-based
// determinism check. Each scenario is a
// sub-test named by its index, so `-run 'TestCampaignInvariantsHold/scn=17'`
// replays one exactly.
func TestCampaignInvariantsHold(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	opts := Options{Seed: 1, Recheck: true}
	rn := NewRunner(opts)
	for i := 0; i < n; i++ {
		t.Run(fmt.Sprintf("scn=%d", i), func(t *testing.T) {
			if r := rn.Run(i, ScenarioAt(opts, i)); r.Failed() {
				t.Fatalf("scenario failed:\n%s\nreplay: %s", r.Line(), r.Scenario.Args())
			}
		})
	}
}

// TestExpectedFailureClassification: a run that exhausts its budget with
// faults present is an expected failure; without faults it is not.
func TestExpectedFailureClassification(t *testing.T) {
	s := &Scenario{Grid: 6, Ranks: 2, Scheme: "F0", Tol: 1e-10, Seed: 1,
		Faults: []FaultSpec{{Rank: 0, Iter: 3}}}
	rep := fakeReport(false, s.MaxIters())
	if _, ok := ExpectedFailure(s, rep); !ok {
		t.Error("budget exhaustion with faults should classify as expected failure")
	}
	rep = fakeReport(false, s.MaxIters()-1)
	if _, ok := ExpectedFailure(s, rep); ok {
		t.Error("stopping before the budget must not classify as expected")
	}
	noFaults := &Scenario{Grid: 6, Ranks: 2, Scheme: "F0", Tol: 1e-10, Seed: 1}
	rep = fakeReport(false, noFaults.MaxIters())
	if _, ok := ExpectedFailure(noFaults, rep); ok {
		t.Error("a fault-free run may never fail expectedly")
	}
	rep = fakeReport(true, 10)
	if _, ok := ExpectedFailure(s, rep); ok {
		t.Error("a converged run is not a failure at all")
	}
}

// fakeReport builds the minimal report the classifier reads.
func fakeReport(converged bool, iters int) *core.RunReport {
	return &core.RunReport{Converged: converged, Iters: iters}
}

// TestRunnerBaselinesStayBounded: the tolerance is client-controlled when
// a Runner serves network verdict jobs, so a long stream of distinct
// tolerances must not grow the baseline table past its cap — and a
// verdict computed after an eviction must equal a fresh Runner's.
func TestRunnerBaselinesStayBounded(t *testing.T) {
	rn := NewRunner(Options{})
	scenario := func(i int) *Scenario {
		return &Scenario{
			Grid: 6, Ranks: 2, Scheme: "LI", Tol: 1e-3 * math.Pow(0.9, float64(i)), Seed: 1,
			Faults: []FaultSpec{{Class: fault.SNF, Rank: 1, Iter: 3}},
		}
	}
	verdict := func(rn *Runner, s *Scenario) string {
		t.Helper()
		res := rn.Run(0, s)
		if res.Failed() {
			t.Fatalf("%s", res.Line())
		}
		return VerdictOf(res).Encode()
	}
	const n = 2 * core.BaselineCap
	for i := 0; i < n; i++ {
		verdict(rn, scenario(i))
	}
	sys := rn.system(6)
	if got := sys.BaselineRuns(); got != n {
		t.Fatalf("%d baseline runs for %d tolerances", got, n)
	}
	// The newest cap tolerances are resident; the older ones were evicted
	// and are recomputed to the same verdict.
	for i := n - core.BaselineCap; i < n; i++ {
		verdict(rn, scenario(i))
	}
	if got := sys.BaselineRuns(); got != n {
		t.Errorf("resident baselines were recomputed (%d runs, want %d)", got, n)
	}
	if got, want := verdict(rn, scenario(0)), verdict(NewRunner(Options{}), scenario(0)); got != want {
		t.Errorf("verdict after eviction differs from a fresh runner's\n got %s\nwant %s", got, want)
	}
	if got := sys.BaselineRuns(); got != n+1 {
		t.Errorf("%d baseline runs, want %d: the oldest tolerance should have been evicted", got, n+1)
	}
}
