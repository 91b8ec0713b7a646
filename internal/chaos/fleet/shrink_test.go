package fleet

import (
	"context"
	"math/rand"
	"testing"

	"resilience/internal/chaos"
)

// predicateEval is an Evaluator whose verdict is a pure predicate of the
// scenario: the shrinker under test sees exactly the failure shape the
// test chose, with no solver behind it.
type predicateEval struct {
	fails func(*chaos.Scenario) bool
	evals int
}

func (p *predicateEval) Evaluate(_ context.Context, scenarios []*chaos.Scenario) ([]string, error) {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		v := chaos.Verdict{Status: chaos.StatusOK, Args: s.Args()}
		if p.fails(s) {
			v.Status = chaos.StatusFail
			v.Violations = []string{"predicate: still failing"}
		}
		out[i] = v.Encode()
	}
	p.evals += len(scenarios)
	return out, nil
}

// shrink runs shrinkOne on s under fails and returns the parsed minimum.
func shrink(t *testing.T, s *chaos.Scenario, fails func(*chaos.Scenario) bool, budget int) (*chaos.Scenario, Shrunk) {
	t.Helper()
	ev := &predicateEval{fails: fails}
	sh, err := shrinkOne(context.Background(), ev, s, "", budget)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Evals != ev.evals || sh.Evals > budget {
		t.Fatalf("shrink reports %d evaluations, evaluator saw %d, budget %d", sh.Evals, ev.evals, budget)
	}
	min, err := chaos.ParseArgs(sh.Args)
	if err != nil {
		t.Fatalf("shrunk scenario %q does not parse: %v", sh.Args, err)
	}
	return min, sh
}

// oneMinimal fails the test if any single valid candidate move keeps min
// failing.
func oneMinimal(t *testing.T, min *chaos.Scenario, fails func(*chaos.Scenario) bool) {
	t.Helper()
	for _, c := range chaos.ShrinkCandidates(min) {
		if c.Validate() == nil && fails(c) {
			t.Fatalf("not 1-minimal: %s still fails after the move to %s", min.Args(), c.Args())
		}
	}
}

func bigScenario() *chaos.Scenario {
	return &chaos.Scenario{
		Grid: 10, Ranks: 6, Scheme: "LSI-DVFS", Tol: 1e-10, CkptEvery: 7,
		DetectDelay: 2, Seed: 999,
		Faults: []chaos.FaultSpec{
			{Class: 4, Rank: 3, Iter: 9},
			{Class: 2, Rank: 5, Iter: 9},
			{Class: 3, Rank: 1, Iter: 14},
		},
	}
}

// TestShrinkMinimizes: the shrinker reduces a large scenario to the
// 1-minimal core under a predicate that fails whenever any fault is
// present.
func TestShrinkMinimizes(t *testing.T) {
	anyFault := func(c *chaos.Scenario) bool { return len(c.Faults) > 0 }
	min, _ := shrink(t, bigScenario(), anyFault, 400)
	if len(min.Faults) != 1 {
		t.Fatalf("want 1 fault after shrinking, got %d (%s)", len(min.Faults), min.Args())
	}
	if min.Grid != 4 || min.Ranks != 1 || min.DetectDelay != 0 {
		t.Fatalf("shrinker left reducible structure: %s", min.Args())
	}
	if f := min.Faults[0]; f.Iter != 1 || f.Rank != 0 {
		t.Fatalf("shrinker left reducible fault placement: %s", min.Args())
	}
	oneMinimal(t, min, anyFault)
}

// TestShrinkKeepsFailing: whatever the predicate, the shrunk scenario
// still fails it (the minimum is a witness, not a guess) and no single
// move simplifies it further.
func TestShrinkKeepsFailing(t *testing.T) {
	// Fails while a hard fault on an even rank remains.
	hardEven := func(c *chaos.Scenario) bool {
		for _, f := range c.Faults {
			if !f.Class.IsSoft() && f.Rank%2 == 0 {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(7))
	tried := 0
	for i := 0; i < 20; i++ {
		s := chaos.NewScenario(rng, chaos.Options{MaxFaults: 3})
		if len(s.Faults) < 2 || !hardEven(s) {
			continue
		}
		tried++
		min, _ := shrink(t, s, hardEven, 400)
		if !hardEven(min) {
			t.Fatalf("shrink lost the failure: %s -> %s", s.Args(), min.Args())
		}
		oneMinimal(t, min, hardEven)
	}
	if tried == 0 {
		t.Fatal("no generated scenario failed the predicate")
	}
}

// TestShrinkBudgetTruncates: a budget too small to finish stops after
// exactly that many evaluations, at the same scenario every time, and the
// scenario it stops at still fails.
func TestShrinkBudgetTruncates(t *testing.T) {
	anyFault := func(c *chaos.Scenario) bool { return len(c.Faults) > 0 }
	_, full := shrink(t, bigScenario(), anyFault, 400)
	for _, budget := range []int{1, 5, full.Evals / 2} {
		min, sh := shrink(t, bigScenario(), anyFault, budget)
		if sh.Evals != budget {
			t.Errorf("budget %d: spent %d evaluations", budget, sh.Evals)
		}
		if !anyFault(min) {
			t.Errorf("budget %d: truncated shrink lost the failure: %s", budget, sh.Args)
		}
		if _, again := shrink(t, bigScenario(), anyFault, budget); again != sh {
			t.Errorf("budget %d: truncation is not deterministic\n first: %+v\nsecond: %+v", budget, sh, again)
		}
		if sh.Args == full.Args {
			t.Errorf("budget %d of %d already reaches the minimum; the case truncates nothing", budget, full.Evals)
		}
	}
}
