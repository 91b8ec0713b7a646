package fleet

import (
	"context"
	"sync"

	"resilience/internal/chaos"
)

// Oracle evaluates scenarios in-process. It is the single-process ground
// truth the distributed path is byte-compared against, and the engine
// behind `chaos-fleet -oracle` (campaigns and corpus distillation without
// a running fleet). Safe for concurrent use.
type Oracle struct {
	// Runner executes the scenarios. NewOracle installs one with default
	// options — exactly the configuration of the service's verdict runner,
	// which the byte comparison needs; `chaos-fleet -oracle -recheck`
	// swaps in one that also runs the rerun-based invariants.
	Runner *chaos.Runner

	breakInvariant string
	workers        int
}

// NewOracle builds an in-process evaluator. breakInvariant mirrors the
// wire protocol's break_invariant field; workers bounds per-batch
// parallelism (<=0: 1).
func NewOracle(breakInvariant string, workers int) *Oracle {
	if workers <= 0 {
		workers = 1
	}
	// The break hook is applied outside the runner, through
	// chaos.Result.Break, as the service's verdict jobs apply it.
	return &Oracle{
		Runner:         chaos.NewRunner(chaos.Options{}),
		breakInvariant: breakInvariant,
		workers:        workers,
	}
}

// Evaluate implements Evaluator.
func (o *Oracle) Evaluate(ctx context.Context, scenarios []*chaos.Scenario) ([]string, error) {
	if err := checkBreak(o.breakInvariant); err != nil {
		return nil, err
	}
	out := make([]string, len(scenarios))
	workers := o.workers
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				line, err := o.one(ctx, scenarios[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				out[i] = line
			}
		}()
	}
	for i := range scenarios {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// one mirrors the service's verdict job step for step: re-parse the
// canonical args exactly as the wire does (so any codec drift shows up
// as a stream mismatch, not a silent divergence), run the shared-runner
// invariant battery, apply the break hook to faulted scenarios, encode.
func (o *Oracle) one(ctx context.Context, s *chaos.Scenario) (string, error) {
	parsed, err := chaos.ParseArgs(s.Args())
	if err != nil {
		return "", err
	}
	res := o.Runner.RunContext(ctx, 0, parsed)
	if res.Err != nil && ctx.Err() != nil {
		return "", res.Err
	}
	res.Break(o.breakInvariant)
	return chaos.VerdictOf(res).Encode(), nil
}
