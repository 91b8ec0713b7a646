package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/sparse"
)

// Options configures a campaign.
type Options struct {
	N         int      // number of scenarios
	Seed      int64    // campaign seed; scenario i derives its own seed from it
	MaxFaults int      // faults per scenario drawn from 0..MaxFaults (<=0: 3)
	Schemes   []string // scheme pool (nil: DefaultSchemes)

	// Recheck enables the determinism invariant: rerun each scenario and
	// demand bitwise-identical results. It roughly doubles the campaign
	// cost.
	Recheck bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxFaults <= 0 {
		out.MaxFaults = 3
	}
	if len(out.Schemes) == 0 {
		out.Schemes = DefaultSchemes()
	}
	return out
}

// SeedStride decorrelates per-scenario seeds (the 32-bit golden ratio,
// the usual splitmix increment). Scenario i of a campaign is generated
// from Seed + i*SeedStride, so any index subrange regenerates alone —
// the property the distributed fleet shards on.
const SeedStride = 0x9E3779B9

// ScenarioAt deterministically derives campaign scenario i from the
// campaign options. It is the single generation path shared by the
// fleet driver (over HTTP or the in-process oracle) and the load
// generator: the same (Seed, i) names the same scenario everywhere,
// independent of worker count, shard assignment, or arrival order.
func ScenarioAt(opts Options, i int) *Scenario {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed + int64(i)*SeedStride))
	return NewScenario(rng, o)
}

// NewScenario draws one randomized scenario from rng. The generator
// deliberately concentrates probability mass on the hard cases from the
// multi-node-failure literature: simultaneous multi-rank faults,
// back-to-back faults (same or adjacent iterations, which the solver
// boundary recovers within one window — a fault during recovery), and
// faults just after a checkpoint (inside the rollback window).
func NewScenario(rng *rand.Rand, opts Options) *Scenario {
	o := opts.withDefaults()
	s := &Scenario{
		Grid:      6 + rng.Intn(5), // n = 36 .. 100
		Ranks:     1 + rng.Intn(6),
		Scheme:    o.Schemes[rng.Intn(len(o.Schemes))],
		Tol:       defaultTol,
		CkptEvery: 2 + rng.Intn(9),
	}
	// Two retired fields' draws, kept so each (seed, index) names the
	// scenario it always has.
	rng.Intn(2)
	rng.Intn(4)
	s.Seed = 1 + rng.Int63n(1<<30)
	if rng.Intn(2) == 0 {
		s.DetectDelay = 1 + rng.Intn(3)
	}
	spec, _ := core.ParseScheme(s.Scheme) // an unknown pool name fails Validate later
	ckpt := spec.Checkpoints()
	nf := rng.Intn(o.MaxFaults + 1)
	for i := 0; i < nf; i++ {
		f := FaultSpec{
			Class: fault.Classes()[rng.Intn(len(fault.Classes()))],
			Rank:  rng.Intn(s.Ranks),
			Iter:  1 + rng.Intn(3*s.Grid),
		}
		if i > 0 && rng.Intn(2) == 0 {
			// Cluster onto the previous fault: same iteration
			// (simultaneous; recovered back-to-back in one boundary) or the
			// next one (strikes the just-recovered state).
			f.Iter = s.Faults[i-1].Iter + rng.Intn(2)
		} else if ckpt && rng.Intn(3) == 0 {
			// Land just after a checkpoint write: the rollback window.
			f.Iter = s.CkptEvery + 1 + rng.Intn(2)
		}
		s.Faults = append(s.Faults, f)
	}
	if ckpt && len(s.Faults) >= 2 && rng.Intn(3) == 0 {
		// Stale-restore pattern: a system-wide outage voids the memory
		// checkpoints, then a non-SWO fault lands right after — its
		// recovery must roll back to the initial guess, not the destroyed
		// copy (the CR-M bug class this generator keeps covered).
		k := rng.Intn(len(s.Faults) - 1)
		s.Faults[k].Class = fault.SWO
		next := &s.Faults[k+1]
		if next.Class == fault.SWO {
			next.Class = fault.SNF
		}
		next.Iter = s.Faults[k].Iter + 1 + rng.Intn(2)
	}
	// The schedule injector fires faults in iteration order; keep the
	// scenario's list in that order so Args round-trips the actual firing
	// sequence.
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Iter < s.Faults[j].Iter })
	return s
}

// Result is the outcome of one scenario.
type Result struct {
	Index      int
	Scenario   *Scenario
	Report     *core.RunReport
	Expected   string // non-empty: classified expected failure
	Violations []Violation
	Err        error // run-level error (itself an invariant violation)
}

// Failed reports whether the scenario violated any invariant (run errors
// count; classified expected failures do not).
func (r *Result) Failed() bool { return len(r.Violations) > 0 || r.Err != nil }

// Line renders the result as one deterministic report line.
func (r *Result) Line() string {
	var b strings.Builder
	status := "ok  "
	switch {
	case r.Failed():
		status = "FAIL"
	case r.Expected != "":
		status = "exp "
	}
	fmt.Fprintf(&b, "#%04d %s %-8s g=%d p=%d faults=%d", r.Index, status,
		r.Scenario.Scheme, r.Scenario.Grid, r.Scenario.Ranks, len(r.Scenario.Faults))
	if r.Report != nil {
		fmt.Fprintf(&b, " iters=%d relres=%.3g", r.Report.Iters, r.Report.RelRes)
	}
	if r.Expected != "" {
		fmt.Fprintf(&b, " expected-failure: %s", r.Expected)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, " run-error: %v", r.Err)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, " [%s]", v)
	}
	return b.String()
}

// Runner executes scenarios and checks invariants, sharing one system —
// and through it the fault-free baselines — per grid size across a
// campaign. Safe for concurrent use.
type Runner struct {
	opts Options

	mu  sync.Mutex
	sys map[int]*core.System

	// recorders holds the span recorders of finished jobs, Reset: the next
	// job records into span logs that are already grown instead of growing
	// its own from nothing.
	recorders sync.Pool
}

// NewRunner builds a scenario runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:      opts.withDefaults(),
		sys:       make(map[int]*core.System),
		recorders: sync.Pool{New: func() any { return obs.NewRecorder() }},
	}
}

// system returns the shared linear system for a grid size. Validate bounds
// the grid, so the map stays small.
func (rn *Runner) system(grid int) *core.System {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	sys, ok := rn.sys[grid]
	if !ok {
		s := Scenario{Grid: grid}
		sys = core.NewSystem(s.System())
		rn.sys[grid] = sys
	}
	return sys
}

// faultFree returns the shared baseline for a scenario's system shape,
// which depends only on the system, partitioning and tolerance.
func (rn *Runner) faultFree(ctx context.Context, s *Scenario) (*core.RunReport, error) {
	ff := Scenario{Grid: s.Grid} // no faults: the fault-free iteration budget
	return rn.system(s.Grid).FaultFree(ctx, core.RunConfig{
		Ranks: s.Ranks, Tol: s.Tol, MaxIters: ff.MaxIters(),
	})
}

// Run executes one scenario and its invariant battery.
func (rn *Runner) Run(index int, s *Scenario) *Result {
	return rn.RunContext(context.Background(), index, s)
}

// RunContext is Run honoring ctx for cancellation and deadlines on the
// main scenario run — the entry point the service's verdict-bearing jobs
// use, so a fleet campaign's per-job timeouts cut solves short instead of
// holding workers.
func (rn *Runner) RunContext(ctx context.Context, index int, s *Scenario) *Result {
	res := &Result{Index: index, Scenario: s}
	if err := s.Validate(); err != nil {
		res.Err = err
		return res
	}
	ff, err := rn.faultFree(ctx, s)
	if err != nil {
		res.Err = fmt.Errorf("fault-free baseline: %w", err)
		return res
	}
	sys := rn.system(s.Grid)
	a, b := sys.A, sys.B
	cfg, err := s.RunConfig(a, b, true)
	if err != nil {
		res.Err = err
		return res
	}
	rec := rn.recorders.Get().(*obs.Recorder)
	cfg.Obs = rec
	rep, err := core.RunContext(ctx, cfg)
	if err != nil {
		// A failed run is rare; its recorder is left to the collector, so
		// only runs that returned cleanly ever feed the pool.
		res.Err = err
		return res
	}
	res.Report = rep
	res.Expected, _ = ExpectedFailure(s, rep)
	res.Violations = CheckInvariants(s, rep, ff, rec)
	// The run has joined and the battery has read the spans; the report
	// outlives this job, so it must not keep pointing at a recorder that
	// is about to observe another one.
	rep.Obs = nil
	rec.Reset()
	rn.recorders.Put(rec)
	if rn.opts.Recheck {
		res.Violations = append(res.Violations, rn.recheck(s, a, b, rep)...)
	}
	// Violations also land in the process flight recorder: a campaign that
	// trips an invariant leaves the recent event timeline in the crash dump
	// (memory-only unless a dump directory was configured, so stdout — the
	// determinism oracle — is untouched).
	for _, v := range res.Violations {
		obs.DefaultFlight().Notef("chaos-violation", "", "%s: %s: %s", s.Args(), v.Invariant, v.Detail)
	}
	return res
}

// recheck runs the rerun-based invariant: bitwise run-to-run
// determinism.
func (rn *Runner) recheck(s *Scenario, a *sparse.CSR, b []float64, rep *core.RunReport) []Violation {
	cfg, err := s.RunConfig(a, b, false)
	if err != nil {
		return []Violation{{InvDeterminism, err.Error()}}
	}
	again, err := core.Run(cfg)
	if err != nil {
		return []Violation{{InvDeterminism, fmt.Sprintf("rerun failed: %v", err)}}
	}
	var vs []Violation
	switch {
	case again.Iters != rep.Iters:
		vs = append(vs, Violation{InvDeterminism,
			fmt.Sprintf("rerun took %d iters, first run %d", again.Iters, rep.Iters)})
	case again.RelRes != rep.RelRes:
		vs = append(vs, Violation{InvDeterminism,
			fmt.Sprintf("rerun relres %.17g != %.17g", again.RelRes, rep.RelRes)})
	case again.Time != rep.Time:
		vs = append(vs, Violation{InvDeterminism,
			fmt.Sprintf("rerun time %.17g != %.17g", again.Time, rep.Time)})
	case again.Energy != rep.Energy:
		vs = append(vs, Violation{InvDeterminism,
			fmt.Sprintf("rerun energy %.17g != %.17g", again.Energy, rep.Energy)})
	case !bitEqual(again.History, rep.History):
		vs = append(vs, Violation{InvDeterminism, "rerun residual history diverged"})
	case !bitEqual(again.Solution, rep.Solution):
		vs = append(vs, Violation{InvDeterminism, "rerun solution diverged"})
	}
	return vs
}

// bitEqual compares float slices bitwise (NaN == NaN, +0 != -0), the
// right notion for determinism checks.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
