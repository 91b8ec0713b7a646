// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 2.2's Figure 3 through Section 6's Figure
// 9), plus ablation studies of the design choices. Each runner produces
// text tables that mirror what the paper reports, at a configurable
// scale (see internal/matgen.Scale for the scale policy).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/report"
)

// Config selects the scale and environment all experiments run in.
type Config struct {
	Scale matgen.Scale
	// Ranks is the process count for the solver experiments (the paper
	// uses 256 for iteration studies and 192 cores for energy studies;
	// scaled-down defaults keep runtimes practical — the paper's own
	// Table 4 shows normalized iterations are process-count invariant).
	Ranks int
	Plat  *platform.Platform
	// Tol is the solver tolerance (paper: 1e-12; relaxed at tiny scale).
	Tol float64
	// Faults is the injected fault count for Section 5.2-style runs
	// (paper: 10).
	Faults int
	Seed   int64
	// Workers bounds the experiment engine's cell concurrency. Zero means
	// GOMAXPROCS; one forces sequential execution. Output is
	// byte-identical for any value.
	Workers int
	// Observe attaches a fresh, discarded observability recorder to every
	// cell solve. Rendered output is byte-identical either way — the
	// point is to exercise the purity guarantee under the whole
	// experiment matrix; TestObserveDeterminism sets it, no program does.
	Observe bool
}

// Default returns the standard configuration for a scale.
func Default(scale matgen.Scale) Config {
	cfg := Config{
		Scale:  scale,
		Plat:   platform.Default(),
		Faults: 10,
		Seed:   1,
	}
	switch scale {
	case matgen.Tiny:
		cfg.Ranks = 8
		cfg.Tol = 1e-10
	case matgen.CI:
		cfg.Ranks = 32
		cfg.Tol = 1e-12
	default:
		cfg.Ranks = 192
		cfg.Tol = 1e-12
	}
	return cfg
}

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Notes  []string
	// Seed is the fault-injection seed the experiment ran with (filled in
	// by the public RunExperiment* entry points). It is not part of the
	// String rendering, so checked-in tables stay byte-identical; CLIs
	// print it alongside so every report names its replay seed.
	Seed int64
}

// String renders the result for terminals and EXPERIMENTS.md.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	for _, n := range r.Notes {
		s += "\nnote: " + n + "\n"
	}
	return s
}

// Runner is a registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) (*Result, error)
}

var registry []Runner

func register(id, title string, run func(Config) (*Result, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns the runners in paper order.
func All() []Runner {
	out := make([]Runner, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderOf(out[i].ID) < orderOf(out[j].ID) })
	return out
}

var paperOrder = []string{
	"fig1", "fig3", "fig4", "tab3", "tab4", "fig5", "fig6", "fig7",
	"tab5", "fig8", "tab6", "fig9",
	"ablation-interval", "ablation-tol", "ablation-dvfs", "ablation-tmr",
	"ablation-multilevel", "ablation-sdc", "ablation-construction",
}

func orderOf(id string) int {
	for i, s := range paperOrder {
		if s == id {
			return i
		}
	}
	return len(paperOrder)
}

// Get finds a runner by id.
func Get(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// --- shared run helpers ------------------------------------------------

// system is a generated workload. Generation runs exactly once, and sys
// owns the fault-free baselines: concurrent cells needing the same one
// block on the winner instead of holding a global lock, so distinct
// systems generate and solve in parallel.
type system struct {
	once   sync.Once
	genErr error
	spec   matgen.Spec
	a      *coreMatrix
	b      []float64
	sys    *core.System
}

// coreMatrix aliases the sparse matrix type without re-importing it in
// every experiment file.
type coreMatrix = sparseCSR

var (
	sysMu    sync.Mutex
	sysCache = map[string]*system{}
)

// loadSystem generates (or returns the cached) analog for a catalog
// matrix at the config's scale. The registry lock is held only for the
// map access; generation itself runs outside it so concurrent cells can
// build distinct systems in parallel.
func (c Config) loadSystem(name string) (*system, error) {
	key := fmt.Sprintf("%s@%s", name, c.Scale)
	sysMu.Lock()
	s, ok := sysCache[key]
	if !ok {
		s = &system{}
		sysCache[key] = s
	}
	sysMu.Unlock()
	scale := c.Scale
	s.once.Do(func() {
		spec, err := matgen.Lookup(name)
		if err != nil {
			s.genErr = err
			return
		}
		s.spec = spec
		s.a = spec.Generate(scale)
		s.b, _ = matgen.RHS(s.a)
		s.sys = core.NewSystem(s.a, s.b)
	})
	if s.genErr != nil {
		return nil, s.genErr
	}
	return s, nil
}

// baseConfig assembles the core.RunConfig shared by all schemes.
func (c Config) baseConfig(s *system) core.RunConfig {
	ranks := c.Ranks
	if ranks > s.a.Rows/2 {
		ranks = s.a.Rows / 2
	}
	if ranks < 1 {
		ranks = 1
	}
	rc := core.RunConfig{
		A:        s.a,
		B:        s.b,
		Ranks:    ranks,
		Plat:     c.Plat,
		Tol:      c.Tol,
		MaxIters: 40 * s.spec.TargetIters(c.Scale),
		Seed:     c.Seed,
	}
	if c.Observe {
		// One private recorder per cell, discarded with the report: the
		// tables must come out byte-identical whether or not anyone watched.
		rc.Obs = obs.NewRecorder()
	}
	return rc
}

// faultFree returns the shared, converged fault-free distributed
// baseline of the config's standard solve, computing it exactly once even
// under concurrent cells.
func (c Config) faultFree(s *system) (*core.RunReport, error) {
	_, ff, err := s.spread(c.baseConfig(s), 0)
	return ff, err
}

// spread installs the paper's evenly spaced n-fault schedule on rc (see
// core.System.Spread).
func (s *system) spread(rc core.RunConfig, n int, classes ...fault.Class) (core.RunConfig, *core.RunReport, error) {
	rc, ff, err := s.sys.Spread(context.Background(), rc, n, classes...)
	if err != nil {
		return rc, nil, fmt.Errorf("experiments: %s on %s: %w", rc.Scheme.Name(), s.spec.Name, err)
	}
	return rc, ff, nil
}

// runScheme executes one scheme under the standard schedule: the config's
// fault count of node failures, spread evenly.
func (c Config) runScheme(s *system, spec core.SchemeSpec, keepSegs bool) (*core.RunReport, error) {
	rc := c.baseConfig(s)
	rc.Scheme = spec
	rc.KeepSegments = keepSegs
	rc, _, err := s.spread(rc, c.Faults, fault.SNF)
	if err != nil {
		return nil, err
	}
	rep, err := core.Run(rc)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", spec.Name(), s.spec.Name, err)
	}
	if !rep.Converged {
		return nil, fmt.Errorf("experiments: %s on %s did not converge (relres %g after %d iters)",
			spec.Name(), s.spec.Name, rep.RelRes, rep.Iters)
	}
	return rep, nil
}

// schemeSet is the paper's standard comparison set for iteration studies.
// The checkpoint interval is the paper's 100 iterations, shrunk at tiny
// scale where fault-free runs are themselves under 100 iterations.
func (c Config) schemeSet() []core.SchemeSpec {
	ckptEvery := 100
	if c.Scale == matgen.Tiny {
		ckptEvery = 10
	}
	return []core.SchemeSpec{
		{Kind: core.RD},
		{Kind: core.F0},
		{Kind: core.FI},
		{Kind: core.LI},
		{Kind: core.LSI},
		{Kind: core.CRD, CkptEvery: ckptEvery},
	}
}

// runOf maps each scheme of set to the index of the scheme whose run its
// cell reads. FI recovers exactly as F0 does (the initial guess is always
// zero), so FI's cell reads F0's run; every other scheme reads its own.
func runOf(set []core.SchemeSpec) []int {
	src := make([]int, len(set))
	f0 := -1
	for i, sc := range set {
		src[i] = i
		switch {
		case sc.Kind == core.F0:
			f0 = i
		case sc.Kind == core.FI && f0 >= 0:
			src[i] = f0
		}
	}
	return src
}

// energySchemeSet is the Section 5.3 comparison set (Table 5), widened
// with the two extension schemes (ESR, LCR) so the comparison tables
// cover the full taxonomy.
func energySchemeSet() []core.SchemeSpec {
	return []core.SchemeSpec{
		{Kind: core.RD},
		{Kind: core.LI, DVFS: true},
		{Kind: core.LSI, DVFS: true},
		{Kind: core.CRM},
		{Kind: core.CRD},
		{Kind: core.ESR},
		{Kind: core.LCR},
	}
}
