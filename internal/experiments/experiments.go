// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 2.2's Figure 3 through Section 6's Figure
// 9), plus ablation studies of the design choices. Each runner produces
// text tables that mirror what the paper reports, at a configurable
// scale (see internal/matgen.Scale for the scale policy).
package experiments

import (
	"fmt"
	"sort"

	"resilience/internal/core"
	"resilience/internal/matgen"
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
