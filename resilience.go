// Package resilience is the public API of this repository: an
// energy-aware resilient sparse linear solver toolkit reproducing
// Miao, Calhoun and Ge, "Energy Analysis and Optimization for Resilient
// Scalable Linear Systems" (IEEE CLUSTER 2018).
//
// It solves SPD systems with distributed Conjugate Gradient on a
// simulated cluster (message-passing runtime, virtual time, power
// metering, DVFS), injects hard/soft faults, recovers with the paper's
// schemes (checkpoint/restart, modular redundancy, forward recovery with
// localized CG construction and DVFS power management), and reports
// time-to-solution, energy-to-solution, average power and iteration
// counts.
//
// Quick start:
//
//	a := resilience.Laplacian2D(64)
//	b, _ := resilience.RHS(a)
//	rep, err := resilience.Solve(a, b, resilience.SolveOptions{
//		Scheme: "LI-DVFS",
//		Ranks:  16,
//		Faults: 5,
//	})
//
// The experiment harness regenerating every table and figure of the
// paper is exposed through Experiments and RunExperiment.
package resilience

import (
	"context"
	"fmt"

	"resilience/internal/core"
	"resilience/internal/experiments"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/sparse"
)

// Matrix is a sparse matrix in CSR format.
type Matrix = sparse.CSR

// Platform describes the simulated machine (cores, DVFS ladder, power
// curves, network and storage parameters).
type Platform = platform.Platform

// Report is the outcome of one resilient solve.
type Report = core.RunReport

// Fault is one injected fault event.
type Fault = fault.Fault

// Recorder collects per-rank spans and counters during a solve, and the
// run's event log — per-iteration residuals, faults, recoveries and
// convergence (see NewRecorder and SolveOptions.Observer). Export with
// obs.WriteChromeTrace / obs.WriteMetricsCSV / obs.WriteEventsCSV or read
// Metrics and Events directly.
type Recorder = obs.Recorder

// NewRecorder returns an empty observability recorder to pass in
// SolveOptions.Observer. Recording never perturbs the solve: times,
// energies and iterates are byte-identical with or without it.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// DefaultPlatform returns the paper's 8-node, 192-core cluster.
func DefaultPlatform() *Platform { return platform.Default() }

// Laplacian2D returns the 5-point stencil Poisson matrix on a g x g grid.
func Laplacian2D(g int) *Matrix { return matgen.Laplacian2D(g) }

// Laplacian3D returns the 7-point stencil Poisson matrix on a g³ grid.
func Laplacian3D(g int) *Matrix { return matgen.Laplacian3D(g) }

// RHS builds b = A*x_true for a smooth known x_true and returns both.
func RHS(a *Matrix) (b, xTrue []float64) { return matgen.RHS(a) }

// CatalogMatrix generates the named Table 3 analog ("Kuu", "crystm02",
// "nd24k", ...) at scale "tiny", "ci" or "paper".
func CatalogMatrix(name, scale string) (*Matrix, error) {
	sc, err := matgen.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	spec, err := matgen.Lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(sc), nil
}

// CatalogNames lists the Table 3 matrix names.
func CatalogNames() []string {
	var names []string
	for _, s := range matgen.Catalog() {
		names = append(names, s.Name)
	}
	return names
}

// SolveOptions configure a resilient solve.
type SolveOptions struct {
	// Scheme selects the recovery mechanism: FF, F0, FI, LI, LI-DVFS,
	// LI(LU), LSI, LSI-DVFS, LSI(QR), CR-M, CR-D, CR-2L, LCR, RD, TMR,
	// ESR.
	Scheme string
	// Ranks is the number of simulated MPI processes (default 16).
	Ranks int
	// Tol is the CG relative-residual target (default 1e-12, the paper's).
	Tol float64
	// MaxIters caps executed iterations (default 10x matrix dimension).
	MaxIters int

	// Faults > 0 injects that many faults evenly spaced over the
	// fault-free iteration count (the paper's Section 5.2 protocol). That
	// fault-free baseline is computed once per system and solver
	// configuration (ranks, tolerance, iteration cap, platform) and shared
	// by every later Solve on the same A and b, whatever its scheme, seed
	// or fault count; the system is recognised by content, so changing A
	// or b in place between calls is safe.
	Faults int
	// MTBF > 0 instead injects Poisson faults with this mean time between
	// failures in virtual seconds (the Section 5.3 protocol). At most one
	// of Faults/MTBF may be set.
	MTBF float64
	// FaultClass is the class of every injected fault. Its zero value is
	// DCE (a detected and corrected error), which corrupts the struck
	// rank's block of x rather than losing it; set SNF for node failures.
	FaultClass fault.Class

	// CkptEvery sets a fixed checkpoint interval in iterations for CR
	// schemes; zero derives it from Young's formula and the fault rate.
	CkptEvery int
	// LocalTol is the LI/LSI localized construction tolerance (1e-6).
	LocalTol float64

	Platform *Platform
	// KeepPowerSegments retains the full power trace for profiles.
	KeepPowerSegments bool
	// Observer, when non-nil, records per-rank spans and counters and the
	// run's event log (see NewRecorder). Pair with KeepPowerSegments to
	// get power counter tracks in the Chrome trace export.
	Observer *Recorder
	Seed     int64
}

// systems owns the fault-free baselines Solve anchors fault schedules on.
// It is content-addressed because callers own a and b and may change them
// in place between calls.
var systems = new(core.Systems)

// Solve runs a resilient distributed CG solve of A x = b.
func Solve(a *Matrix, b []float64, opts SolveOptions) (*Report, error) {
	if opts.Ranks == 0 {
		opts.Ranks = 16
	}
	if opts.Scheme == "" {
		opts.Scheme = "FF"
	}
	spec, err := ParseScheme(opts.Scheme)
	if err != nil {
		return nil, err
	}
	spec.CkptEvery = opts.CkptEvery
	spec.LocalTol = opts.LocalTol
	if opts.Faults > 0 && opts.MTBF > 0 {
		return nil, fmt.Errorf("resilience: set either Faults or MTBF, not both")
	}

	cfg := core.RunConfig{
		A:            a,
		B:            b,
		Ranks:        opts.Ranks,
		Plat:         opts.Platform,
		Scheme:       spec,
		Tol:          opts.Tol,
		MaxIters:     opts.MaxIters,
		KeepSegments: opts.KeepPowerSegments,
		Obs:          opts.Observer,
		Seed:         opts.Seed,
	}

	switch {
	case spec.Kind == core.FF:
	case opts.Faults > 0:
		// The schedule is anchored on the fault-free iteration count. The
		// baseline run is internal scaffolding, shared across solves and
		// kept out of the caller's recorder.
		cfg, _, err = systems.For(a, b).Spread(context.Background(), cfg, opts.Faults, opts.FaultClass)
		if err != nil {
			return nil, fmt.Errorf("resilience: %w", err)
		}
	case opts.MTBF > 0:
		cfg.InjectorFactory = func() fault.Injector {
			return fault.NewPoisson(opts.MTBF, opts.Ranks, opts.FaultClass, opts.Seed)
		}
		if spec.Checkpoints() && spec.CkptEvery == 0 {
			cfg.Scheme.CkptMTBF = opts.MTBF
		}
	}
	return core.Run(cfg)
}

// Experiment is a registered paper experiment.
type Experiment = experiments.Runner

// ExperimentResult is an experiment's rendered output.
type ExperimentResult = experiments.Result

// Experiments lists every registered table/figure runner in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one experiment by id ("fig5", "tab6", ...) at
// scale "tiny", "ci" or "paper".
func RunExperiment(id, scale string) (*ExperimentResult, error) {
	return RunExperimentOpts(id, scale, ExperimentOptions{})
}

// ExperimentOptions tune how an experiment executes without changing what
// it measures.
type ExperimentOptions struct {
	// Workers bounds the engine's cell concurrency; zero means
	// GOMAXPROCS.
	Workers int
	// Seed overrides the experiment fault-injection seed; zero keeps the
	// default (1, the seed behind every checked-in table). The effective
	// seed is echoed in ExperimentResult.Seed so reports are replayable.
	Seed int64
}

// RunExperimentOpts is RunExperiment with explicit engine options.
func RunExperimentOpts(id, scale string, opts ExperimentOptions) (*ExperimentResult, error) {
	sc, err := matgen.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	r, ok := experiments.Get(id)
	if !ok {
		return nil, fmt.Errorf("resilience: unknown experiment %q", id)
	}
	cfg := experiments.Default(sc)
	cfg.Workers = opts.Workers
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	res, err := r.Run(cfg)
	if res != nil {
		res.Seed = cfg.Seed
	}
	return res, err
}
