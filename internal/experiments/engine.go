package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
)

// The concurrent experiment engine. Every solve sweep is a list of
// cells, one resilient solve each, handed to Config.run: it generates
// each catalog system once, anchors each cell on its fault-free baseline
// (core.System.Spread, the paper's Section 5.2 protocol), solves the
// distinct cells on a bounded worker pool and returns the outcomes in
// cell order. A cell owns its private cluster.Runtime, power.Meter and
// RNG, and the only shared state is the generated systems with the
// baselines they own, so tables assembled from the outcomes afterwards
// are byte-identical for any worker count.

// cell is one solve of an experiment: a catalog matrix under a scheme.
// Every other field overrides the Config's standard solve when set; the
// zero value of each keeps it: Config.Ranks (clamped to half the rows),
// Config.Plat, Config.Faults node failures spread evenly, prompt SDC
// detection, no power segments. The zero scheme is FF, whose outcome is
// the baseline itself.
type cell struct {
	matrix  string
	scheme  core.SchemeSpec
	ranks   int
	plat    *platform.Platform
	faults  int
	classes []fault.Class
	// delay is the SDC detection latency in iterations.
	delay int
	// keepSegs retains the power segments (timelines, phase windows).
	keepSegs bool
	// inject, when set, replaces the evenly spread schedule.
	inject injection
}

// An injection is a fault source of its own for a cell. Implementations
// are comparable values, so cells that inject alike name one solve.
type injection interface {
	injector(ranks int, seed int64) fault.Injector
}

// poisson draws node failures at exponential arrivals of one MTBF in
// seconds, at most limit of them (Section 5.3).
type poisson struct {
	mtbf  float64
	limit int
}

func (p poisson) injector(ranks int, seed int64) fault.Injector {
	return fault.NewPoisson(p.mtbf, ranks, fault.SNF, seed).WithLimit(p.limit)
}

// singleFault is one node failure at iteration iter, on the rank the seed
// names.
type singleFault struct{ iter int }

func (f singleFault) injector(ranks int, seed int64) fault.Injector {
	// A non-negative residue: a negative seed must still name a rank.
	rank := (int(seed)%ranks + ranks) % ranks
	return fault.NewSchedule([]fault.Fault{{Class: fault.SNF, Rank: rank, Iter: f.iter}})
}

// grid lists one cell per (matrix, scheme), matrix-major.
func grid(matrices []string, specs []core.SchemeSpec) []cell {
	cells := make([]cell, 0, len(matrices)*len(specs))
	for _, m := range matrices {
		for _, s := range specs {
			cells = append(cells, cell{matrix: m, scheme: s})
		}
	}
	return cells
}

// outcome is one solved cell: its report and the fault-free baseline it
// is normalised to. Both are shared between the cells that name one
// solve and are read-only.
type outcome struct {
	rep, ff *core.RunReport
}

// run solves cells and returns their outcomes in cell order, or the
// lowest-indexed cell's error. Cells that resolve to the same solve (FI
// is F0: every solve starts from x0 = 0) are solved once and share the
// outcome.
func (c Config) run(cells ...cell) ([]outcome, error) {
	resolved := make([]cell, len(cells))
	src := make([]int, len(cells)) // the first cell naming each cell's solve
	var distinct []int
	for i, cl := range cells {
		resolved[i] = c.resolve(cl)
		src[i] = slices.IndexFunc(resolved[:i+1], func(r cell) bool { return reflect.DeepEqual(r, resolved[i]) })
		if src[i] == i {
			distinct = append(distinct, i)
		}
	}
	out := make([]outcome, len(cells))
	err := c.runCells(len(distinct), func(k int) error {
		i := distinct[k]
		o, err := c.solve(resolved[i])
		out[i] = o
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, j := range src {
		out[i] = out[j]
	}
	return out, nil
}

// resolve fills a cell's unset overrides from the Config, so that equal
// resolved cells are one solve; a platform compares by value, as core
// keys its baselines.
func (c Config) resolve(cl cell) cell {
	if cl.ranks == 0 {
		cl.ranks = c.Ranks
	}
	if cl.plat == nil {
		cl.plat = c.Plat
	}
	if cl.faults == 0 {
		cl.faults = c.Faults
	}
	if cl.classes == nil {
		cl.classes = []fault.Class{fault.SNF}
	}
	if cl.scheme.Kind == core.FI {
		cl.scheme.Kind = core.F0
	}
	return cl
}

// solve runs one resolved cell.
func (c Config) solve(cl cell) (outcome, error) {
	g, err := c.generate(cl.matrix)
	if err != nil {
		return outcome{}, err
	}
	rc, ff, err := g.sys.Spread(context.Background(), c.runConfig(cl, g), cl.faults, cl.classes...)
	if err != nil {
		return outcome{}, fmt.Errorf("experiments: %s on %s: %w", cl.scheme.Name(), cl.matrix, err)
	}
	if cl.inject != nil {
		ranks, seed := rc.Ranks, rc.Seed
		rc.InjectorFactory = func() fault.Injector { return cl.inject.injector(ranks, seed) }
	} else if cl.scheme.Kind == core.FF && !cl.keepSegs {
		return outcome{rep: ff, ff: ff}, nil
	}
	rep, err := core.Run(rc)
	if err != nil {
		return outcome{}, fmt.Errorf("experiments: %s on %s: %w", cl.scheme.Name(), cl.matrix, err)
	}
	if !rep.Converged {
		return outcome{}, fmt.Errorf("experiments: %s on %s did not converge (relres %g after %d iters)",
			cl.scheme.Name(), cl.matrix, rep.RelRes, rep.Iters)
	}
	return outcome{rep: rep, ff: ff}, nil
}

// runConfig assembles a resolved cell's solve on its generated system,
// before the fault schedule.
func (c Config) runConfig(cl cell, g *generated) core.RunConfig {
	ranks := min(cl.ranks, g.sys.A.Rows/2)
	rc := core.RunConfig{
		Ranks:        max(ranks, 1),
		Plat:         cl.plat,
		Scheme:       cl.scheme,
		Tol:          c.Tol,
		MaxIters:     40 * g.spec.TargetIters(c.Scale),
		DetectDelay:  cl.delay,
		KeepSegments: cl.keepSegs,
		Seed:         c.Seed,
	}
	if c.Observe {
		// One private recorder per cell, discarded with the report: the
		// tables must come out byte-identical whether or not anyone watched.
		rc.Obs = obs.NewRecorder()
	}
	return rc
}

// generated is a catalog matrix's analog at one scale with its
// right-hand side, wrapped in the core.System that owns its baselines.
type generated struct {
	spec matgen.Spec
	sys  *core.System
}

var (
	generatedMu sync.Mutex
	generatedAt = map[string]func() (*generated, error){}
)

// generate returns the system for a catalog matrix at the config's
// scale, generating it once per process. The lock is held only for the
// map access, so distinct systems generate in parallel.
func (c Config) generate(name string) (*generated, error) {
	key := fmt.Sprintf("%s@%s", name, c.Scale)
	generatedMu.Lock()
	gen, ok := generatedAt[key]
	if !ok {
		scale := c.Scale
		gen = sync.OnceValues(func() (*generated, error) {
			spec, err := matgen.Lookup(name)
			if err != nil {
				return nil, err
			}
			a := spec.Generate(scale)
			b, _ := matgen.RHS(a)
			return &generated{spec: spec, sys: core.NewSystem(a, b)}, nil
		})
		generatedAt[key] = gen
	}
	generatedMu.Unlock()
	return gen()
}

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
	workers := min(c.workers(), n)
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
