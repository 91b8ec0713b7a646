package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The concurrent experiment engine. Every experiment decomposes into
// independent cells — one (matrix, scheme, sweep-point) run each. A cell
// owns its private cluster.Runtime, power.Meter, and RNG, so cells are
// embarrassingly parallel; the only shared state is the read-only system
// cache, which serializes per key with once semantics. Results land in
// caller-owned slices indexed by cell, and tables are assembled
// sequentially afterwards, so the rendered output is byte-identical for
// any worker count.

// workers resolves the engine's concurrency: Config.Workers when set,
// else GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runCells executes fn(0..n-1) on the configured worker pool and returns
// the lowest-indexed error, matching what sequential execution would
// report first. With one worker it degrades to a plain loop that stops at
// the first failure.
func (c Config) runCells(n int, fn func(i int) error) error {
	return forEachCell(c.workers(), n, fn)
}

func forEachCell(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
