package chaos

import (
	"sync"
	"testing"
)

// budgetScenario is the pinned job of the allocation budget: four ranks,
// a checkpointing scheme, an outage and a node failure one iteration apart.
const budgetScenario = "-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -faults SWO@5:r1,SNF@6:r0"

// runAllocCeiling is the committed ceiling on heap allocations of one warm
// Runner.Run of budgetScenario: 15 % above the measured 426 (434–445 under
// the race detector). The commit before the one that added this test
// measured 836 on the same job; a change that lands back there has started
// throwing the per-job scratch away again.
const runAllocCeiling = 490

// TestRunAllocBudget keeps the allocation count of the verdict-job path
// next to the code that owns it: a warm runner (system, fault-free
// baseline and pooled recorder already built) may allocate at most
// runAllocCeiling objects per scenario.
func TestRunAllocBudget(t *testing.T) {
	s, err := ParseArgs(budgetScenario)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(Options{})
	if res := rn.Run(0, s); res.Failed() {
		t.Fatalf("budget scenario fails its own battery: %s", res.Line())
	}
	allocs := testing.AllocsPerRun(50, func() {
		if res := rn.Run(0, s); res.Failed() {
			t.Errorf("budget scenario failed: %s", res.Line())
		}
	})
	t.Logf("warm Runner.Run: %.0f allocs/op (ceiling %d)", allocs, runAllocCeiling)
	if allocs > runAllocCeiling {
		t.Fatalf("warm Runner.Run allocates %.0f objects per scenario, ceiling is %d", allocs, runAllocCeiling)
	}
}

// TestRunnerReuseInvisible: recorders and checker scratch recycled between
// jobs must not leak one job into the next. 240 generated scenarios — all
// ten schemes, rank counts 1–6 interleaved so a 6-rank job is followed by
// a 1-rank job on the same recorder — run once through one shared Runner
// from four workers and once through a fresh Runner each; the encoded
// verdicts must agree byte for byte.
func TestRunnerReuseInvisible(t *testing.T) {
	const n, workers = 240, 4
	opts := Options{Seed: 11}
	scn := make([]*Scenario, n)
	schemes := make(map[string]bool)
	for i := range scn {
		scn[i] = ScenarioAt(opts, i)
		// Force the rank count into a 6,1,5,2,4,3 cycle: the generator's own
		// draw is kept when it still fits the faults it scheduled.
		want := []int{6, 1, 5, 2, 4, 3}[i%6]
		fits := true
		for _, f := range scn[i].Faults {
			fits = fits && f.Rank < want
		}
		if fits {
			scn[i].Ranks = want
		}
		schemes[scn[i].Scheme] = true
	}
	if len(schemes) != len(DefaultSchemes()) {
		t.Fatalf("campaign drew %d schemes, want all %d", len(schemes), len(DefaultSchemes()))
	}
	shrinks := 0
	for i := 1; i < n; i++ {
		if scn[i-1].Ranks == 6 && scn[i].Ranks == 1 {
			shrinks++
		}
	}
	if shrinks == 0 {
		t.Fatal("no 6-rank job is followed by a 1-rank job")
	}

	shared := make([]string, n)
	rn := NewRunner(opts)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				shared[i] = VerdictOf(rn.Run(i, scn[i])).Encode()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, s := range scn {
		fresh := VerdictOf(NewRunner(opts).Run(i, s)).Encode()
		if fresh != shared[i] {
			t.Fatalf("scenario %d (%s): shared runner and fresh runner disagree\nshared: %s\n fresh: %s",
				i, s.Args(), shared[i], fresh)
		}
	}
}
