// Package core is the paper's contribution assembled: it orchestrates the
// distributed CG solver, fault injection, a recovery scheme, and power
// management into one resilient run, and reports the metrics the paper
// studies — iterations, time-to-solution, average power, and
// energy-to-solution, with per-phase energy attribution.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"resilience/internal/checkpoint"
	"resilience/internal/cluster"
	"resilience/internal/fault"
	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/recovery"
	"resilience/internal/solver"
	"resilience/internal/sparse"
)

// SchemeKind enumerates the recovery mechanisms under study (Table 2).
type SchemeKind int

// The schemes of Table 2, plus the fault-free baseline.
const (
	FF SchemeKind = iota // fault-free baseline (no injection)
	F0
	FI
	LI
	LSI
	CRM  // checkpoint/restart to memory
	CRD  // checkpoint/restart to disk
	CR2L // two-level checkpoint/restart, memory + disk (extension)
	RD   // dual modular redundancy
	TMR  // triple modular redundancy (extension)
	ESR  // exact state reconstruction (extension)
	LCR  // lossy-compressed checkpoint/restart (extension); keep last: the scheme-table test walks [FF, LCR]
)

// SchemeSpec selects and configures a recovery scheme.
type SchemeSpec struct {
	Kind SchemeKind
	// Construct picks the LI/LSI construction: the paper's localized CG
	// (default) or the exact prior-work LU/QR baseline.
	Construct recovery.Construction
	// DVFS enables the Section 4.2 power management for LI/LSI.
	DVFS bool
	// LocalTol is the localized construction tolerance (default 1e-6).
	LocalTol float64
	// CkptEvery checkpoints every N iterations (CR only). Zero derives
	// the interval from Young's formula using CkptMTBF.
	CkptEvery int
	// CkptMTBF (seconds) feeds Young's formula when CkptEvery is zero.
	CkptMTBF float64
	// DiskEvery is the disk-level interval for CR-2L in iterations; zero
	// defaults to 4x the memory interval.
	DiskEvery int
	// UseDaly switches the derived interval to Daly's higher-order
	// formula (ablation extension).
	UseDaly bool
	// LossyRatio is the LCR compression ratio (compressed payload =
	// bytes/LossyRatio); zero means recovery.DefaultLossyRatio.
	LossyRatio float64
}

// RunConfig describes one resilient solve.
type RunConfig struct {
	A  *sparse.CSR
	B  []float64
	X0 []float64 // nil = zeros

	Ranks  int
	Plat   *platform.Platform
	Scheme SchemeSpec

	// InjectorFactory builds one injector per rank; all instances must be
	// deterministic and identical (same seed). Nil means fault-free.
	InjectorFactory func() fault.Injector

	// Tol is the relative-residual target; zero means the paper's 1e-12.
	Tol float64
	// MaxIters caps executed iterations; zero means 10 x the row count.
	MaxIters int
	// Jacobi enables diagonal preconditioning of the distributed CG
	// (extension beyond the paper).
	Jacobi bool
	// Overlap hides the halo exchange behind the interior SpMV in every
	// distributed matrix-vector product. Bitwise-identical numerics; the
	// modeled time and energy change.
	Overlap bool
	// DetectDelay is the number of iterations a silent data corruption
	// (SDC) propagates before it is detected and recovery runs. Hard
	// faults are always detected immediately. Extension beyond the paper,
	// which assumes prompt detection (Section 3).
	DetectDelay int
	// KeepSegments retains power segments for timeline reports (Fig 7a).
	KeepSegments bool
	// Obs, when non-nil, records per-rank spans and counters, and rank 0
	// keeps the run's event log on it (iterations, faults, recoveries,
	// convergence). Recording is pure: virtual clocks, power, and every
	// numeric result are byte-identical with or without it.
	Obs *obs.Recorder
	// Seed drives fault corruption patterns.
	Seed int64
}

// RunReport is the outcome of one resilient solve.
type RunReport struct {
	Scheme    string
	Ranks     int
	Iters     int
	Converged bool
	RelRes    float64
	Restarts  int

	// Time is the virtual time-to-solution in seconds (max over ranks).
	Time float64
	// Energy is energy-to-solution in joules, including redundant
	// hardware (x Redundancy for RD/TMR).
	Energy float64
	// AvgPower = Energy / Time, the paper's P metric.
	AvgPower float64
	// EnergyByPhase attributes energy to solve/reconstruct/checkpoint/
	// rollback phases (before the redundancy multiplier).
	EnergyByPhase map[string]float64

	Faults      []fault.Fault
	Checkpoints int
	Redundancy  int

	// Seed echoes RunConfig.Seed so any report names the seed that
	// replays it.
	Seed int64

	// History is the relative residual at each iteration (rank 0).
	History []float64
	// Solution is the assembled final iterate.
	Solution []float64
	// Meter exposes segments when KeepSegments was set.
	Meter *power.Meter
	// Obs echoes the recorder passed in RunConfig (nil otherwise), so
	// callers can export spans and metrics from the report alone.
	Obs *obs.Recorder
}

// buildScheme instantiates the per-rank scheme.
func buildScheme(cfg *RunConfig, x0Block []float64, ckptPolicy checkpoint.Policy) (recovery.Scheme, error) {
	switch cfg.Scheme.Kind {
	case FF:
		return nil, nil
	case F0:
		return &recovery.F0{}, nil
	case FI:
		return &recovery.FI{X0: x0Block}, nil
	case LI:
		return &recovery.LI{
			Construct: cfg.Scheme.Construct,
			DVFS:      cfg.Scheme.DVFS,
			LocalTol:  cfg.Scheme.LocalTol,
		}, nil
	case LSI:
		return &recovery.LSI{
			Construct: cfg.Scheme.Construct,
			DVFS:      cfg.Scheme.DVFS,
			LocalTol:  cfg.Scheme.LocalTol,
		}, nil
	case CRM:
		return &recovery.CR{Store: checkpoint.MemStore{Plat: cfg.Plat}, Policy: ckptPolicy, X0: x0Block}, nil
	case CRD:
		return &recovery.CR{Store: checkpoint.DiskStore{Plat: cfg.Plat}, Policy: ckptPolicy, X0: x0Block}, nil
	case CR2L:
		diskEvery := cfg.Scheme.DiskEvery
		if diskEvery == 0 {
			diskEvery = 4 * ckptPolicy.EveryIters
		}
		s := &recovery.CR2L{
			Mem:        checkpoint.MemStore{Plat: cfg.Plat},
			Disk:       checkpoint.DiskStore{Plat: cfg.Plat},
			MemPolicy:  ckptPolicy,
			DiskPolicy: checkpoint.FixedPolicy(diskEvery),
			X0:         x0Block,
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s, nil
	case RD:
		return &recovery.RD{Replicas: 2}, nil
	case TMR:
		return &recovery.RD{Replicas: 3}, nil
	case ESR:
		return &recovery.ESR{X0: x0Block}, nil
	case LCR:
		return &recovery.LCR{CR: recovery.CR{
			Store:  lossyStore(cfg.Plat, cfg.Scheme),
			Policy: ckptPolicy,
			X0:     x0Block,
		}}, nil
	}
	return nil, fmt.Errorf("core: unknown scheme kind %v", cfg.Scheme.Kind)
}

// lossyStore builds the LCR checkpoint target: the shared disk behind an
// error-bounded compressor at the spec's ratio.
func lossyStore(plat *platform.Platform, s SchemeSpec) checkpoint.Store {
	ratio := s.LossyRatio
	if ratio <= 0 {
		ratio = recovery.DefaultLossyRatio
	}
	return checkpoint.Lossy{Inner: checkpoint.DiskStore{Plat: plat}, Ratio: ratio}
}

// resMonitor wires fault injection and recovery into the CG iteration.
type resMonitor struct {
	cfg      *RunConfig
	scheme   recovery.Scheme
	injector fault.Injector
	// rng drives the corruption patterns. Only a struck rank draws from
	// it, so it is seeded on first use: most ranks of most runs never pay
	// for seeding the 607-word source.
	rng     *rand.Rand
	faults  []fault.Fault
	pending []pendingFault
	// ctx, when non-nil, is polled at every iteration boundary so a
	// canceled or expired context aborts the run promptly. Only set for
	// cancellable contexts — Run's Background context costs nothing.
	ctx context.Context
	// rctx is the one recovery context this rank's scheme is ever handed,
	// refilled at each boundary: the scheme takes it by pointer through an
	// interface, so a fresh literal would be a heap object per iteration.
	rctx recovery.Ctx
	// events is rank 0's recording surface, which keeps the run's event
	// log; nil on every other rank and when no recorder is attached.
	events *obs.Rank
}

// recoveryCtx refills and returns the monitor's recovery context.
func (m *resMonitor) recoveryCtx(it *solver.Iter) *recovery.Ctx {
	m.rctx = recovery.Ctx{C: it.C, Op: it.Op, St: it.State, Plat: m.cfg.Plat}
	return &m.rctx
}

// pendingFault is an injected-but-undetected silent corruption.
type pendingFault struct {
	f   fault.Fault
	due int
}

func (m *resMonitor) BeforeIteration(it *solver.Iter) (bool, error) {
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			return false, fmt.Errorf("core: run canceled at iteration %d: %w", it.K, err)
		}
	}
	if m.events != nil {
		relres := 0.0
		if it.State.NormB > 0 && it.State.Rho >= 0 {
			relres = math.Sqrt(it.State.Rho) / it.State.NormB
		}
		m.events.Event(obs.Event{Kind: obs.Iteration, Iter: it.K, Clock: it.C.Clock(), RelRes: relres})
	}
	if m.injector == nil {
		return false, nil
	}
	restart := false
	// Drain every fault due at this iteration: simultaneous failures on
	// multiple processes recover back-to-back within one boundary. The
	// clock is sampled once, before any recovery runs: ranks' clocks are
	// only guaranteed equal at the boundary itself, and every rank must
	// make identical injection decisions.
	clock := it.C.Clock()
	ctx := m.recoveryCtx(it)
	for {
		f := m.injector.Check(it.K, clock)
		if f == nil {
			break
		}
		if f.Rank < 0 || f.Rank >= it.C.Size() {
			return false, fmt.Errorf("core: %v strikes no rank of a %d-rank run", *f, it.C.Size())
		}
		m.faults = append(m.faults, *f)
		if m.events != nil {
			m.events.Event(obs.Event{Kind: obs.FaultEvent, Iter: it.K, Rank: f.Rank, Clock: clock, Fault: *f})
		}
		if m.scheme == nil {
			// FF with an injector configured is a configuration error.
			return false, fmt.Errorf("core: fault injected but no recovery scheme configured")
		}
		// Destroy/corrupt the dynamic data on the struck rank (Fig. 2b).
		if it.C.Rank() == f.Rank {
			if m.rng == nil {
				m.rng = rand.New(rand.NewSource(m.cfg.Seed + 7919))
			}
			fault.Apply(fault.EffectOf(f.Class), it.State.X, m.rng)
		}
		// Silent corruptions propagate until detected (DetectDelay
		// iterations later); everything else recovers immediately.
		if f.Class == fault.SDC && m.cfg.DetectDelay > 0 {
			m.pending = append(m.pending, pendingFault{f: *f, due: it.K + m.cfg.DetectDelay})
			continue
		}
		r, err := m.recoverFrom(it, ctx, *f)
		if err != nil {
			return false, err
		}
		restart = restart || r
	}
	// Recover any silent corruption whose detection is due.
	if len(m.pending) > 0 {
		keep := m.pending[:0]
		for _, p := range m.pending {
			if it.K < p.due {
				keep = append(keep, p)
				continue
			}
			r, err := m.recoverFrom(it, ctx, p.f)
			if err != nil {
				return false, err
			}
			restart = restart || r
		}
		m.pending = keep
	}
	return restart, nil
}

// recoverFrom runs the scheme's recovery from f and logs it, at the iteration
// it completes in — the detection iteration for a late-detected silent
// corruption.
func (m *resMonitor) recoverFrom(it *solver.Iter, ctx *recovery.Ctx, f fault.Fault) (bool, error) {
	restart, err := m.scheme.Recover(ctx, f)
	if err == nil && m.events != nil {
		// The spec's name, a static string, rather than the scheme's own,
		// which some schemes build per call.
		m.events.Event(obs.Event{Kind: obs.RecoveryEvent, Iter: it.K, Rank: f.Rank, Clock: it.C.Clock(), Scheme: m.cfg.Scheme.Name()})
	}
	return restart, err
}

func (m *resMonitor) AfterIteration(it *solver.Iter) error {
	if m.scheme == nil {
		return nil
	}
	return m.scheme.AfterIteration(m.recoveryCtx(it), it.K)
}

// EstimateIterTime approximates the fault-free per-iteration virtual time
// of distributed CG on this configuration: one SpMV plus vector work plus
// three collectives. It feeds Young's formula.
func EstimateIterTime(a *sparse.CSR, ranks int, plat *platform.Platform) float64 {
	flopsPerRank := (2*int64(a.NNZ()) + 12*int64(a.Rows)) / int64(ranks)
	t := plat.ComputeTime(flopsPerRank, plat.FreqMax)
	t += 3 * plat.CollectiveTime(8, ranks)
	// Halo exchange: a handful of neighbor messages.
	t += 4 * plat.P2PTime(8*int64(a.Rows/ranks/8+1))
	return t
}

// ckptPolicy resolves the checkpoint policy for a run.
func ckptPolicy(cfg *RunConfig, maxBlockRows int) (checkpoint.Policy, error) {
	s := cfg.Scheme
	if !s.Checkpoints() {
		return checkpoint.Policy{}, nil
	}
	if s.CkptEvery > 0 {
		return checkpoint.FixedPolicy(s.CkptEvery), nil
	}
	if s.CkptMTBF <= 0 {
		return checkpoint.Policy{}, fmt.Errorf("core: CR scheme needs CkptEvery or CkptMTBF")
	}
	var store checkpoint.Store
	switch {
	case s.Kind == CRM || s.Kind == CR2L:
		store = checkpoint.MemStore{Plat: cfg.Plat}
	case s.Kind == LCR:
		store = lossyStore(cfg.Plat, s)
	default:
		store = checkpoint.DiskStore{Plat: cfg.Plat}
	}
	tC := store.WriteTime(int64(8*maxBlockRows), cfg.Ranks)
	iterSec := EstimateIterTime(cfg.A, cfg.Ranks, cfg.Plat)
	if s.UseDaly {
		return checkpoint.DalyPolicy(tC, s.CkptMTBF, iterSec), nil
	}
	return checkpoint.YoungPolicy(tC, s.CkptMTBF, iterSec), nil
}

// defaultTol is the relative-residual target of a run that names none: the
// paper's.
const defaultTol = 1e-12

// resolve validates the system and rank count and fills in the platform,
// tolerance and iteration-cap defaults — the only place a solver default
// is applied — so that two configurations that spell a default
// differently compare equal (System keys its baselines on that).
func (cfg *RunConfig) resolve() error {
	if cfg.A == nil || cfg.A.Rows != cfg.A.Cols || len(cfg.B) != cfg.A.Rows {
		return fmt.Errorf("core: invalid system (A %v, len(b)=%d)", cfg.A, len(cfg.B))
	}
	if cfg.Ranks <= 0 || cfg.Ranks > cfg.A.Rows {
		return fmt.Errorf("core: invalid rank count %d for n=%d", cfg.Ranks, cfg.A.Rows)
	}
	if cfg.Plat == nil {
		cfg.Plat = platform.Default()
	}
	if err := cfg.Plat.Validate(); err != nil {
		return err
	}
	if cfg.Tol <= 0 {
		cfg.Tol = defaultTol
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 10 * cfg.A.Rows
	}
	return nil
}

// Run executes one resilient solve and reports its metrics.
func Run(cfg RunConfig) (*RunReport, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: every rank polls the
// context at each iteration boundary, so a canceled or expired context
// aborts the solve within one iteration. The returned error wraps
// ctx.Err() (test with errors.Is). A background context adds no per-
// iteration cost: only cancellable contexts are polled.
func RunContext(ctx context.Context, cfg RunConfig) (*RunReport, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: run canceled before start: %w", err)
		}
	}
	if err := cfg.resolve(); err != nil {
		return nil, err
	}

	part := sparse.NewPartition(cfg.A.Rows, cfg.Ranks)
	policy, err := ckptPolicy(&cfg, part.Size(0))
	if err != nil {
		return nil, err
	}

	meter := power.NewMeter(cfg.KeepSegments)
	results := make([]*solver.Result, cfg.Ranks)
	monitors := make([]*resMonitor, cfg.Ranks)
	schemes := make([]recovery.Scheme, cfg.Ranks)

	rt := cluster.NewRuntime(cfg.Ranks, cfg.A.NNZ(), cfg.Plat, meter)
	if cfg.Obs != nil {
		rt.SetRecorder(cfg.Obs)
	}
	maxClock, err := rt.Run(func(c *cluster.Comm) error {
		var x0Block []float64
		if cfg.X0 != nil {
			x0Block = append([]float64(nil), part.Slice(cfg.X0, c.Rank())...)
		}
		scheme, err := buildScheme(&cfg, x0Block, policy)
		if err != nil {
			return err
		}
		schemes[c.Rank()] = scheme
		mon := &resMonitor{cfg: &cfg, scheme: scheme}
		if c.Rank() == 0 {
			mon.events = c.Observer()
		}
		if ctx != nil && ctx.Done() != nil {
			mon.ctx = ctx
		}
		if cfg.InjectorFactory != nil {
			mon.injector = cfg.InjectorFactory()
		}
		monitors[c.Rank()] = mon

		res, err := solver.CG(c, cfg.A, cfg.B, part, solver.Options{
			Tol:                cfg.Tol,
			MaxIters:           cfg.MaxIters,
			Monitor:            mon,
			VerifyTrueResidual: true,
			X0:                 cfg.X0,
			Jacobi:             cfg.Jacobi,
			Overlap:            cfg.Overlap,
		})
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	r0 := results[0]
	report := &RunReport{
		Scheme:        cfg.Scheme.Name(),
		Ranks:         cfg.Ranks,
		Iters:         r0.Iters,
		Converged:     r0.Converged,
		RelRes:        r0.RelRes,
		Restarts:      r0.Restarts,
		Time:          maxClock,
		EnergyByPhase: meter.EnergyByPhase(),
		History:       r0.History,
		Faults:        monitors[0].faults,
		Redundancy:    1,
		Seed:          cfg.Seed,
	}
	if s := schemes[0]; s != nil {
		report.Redundancy = s.Redundancy()
		switch sc := s.(type) {
		case *recovery.CR:
			report.Checkpoints = sc.Writes
		case *recovery.LCR:
			report.Checkpoints = sc.Writes
		case *recovery.CR2L:
			report.Checkpoints = sc.MemWrites + sc.DiskWrites
		}
	}
	report.Solution = make([]float64, cfg.A.Rows)
	for r := 0; r < cfg.Ranks; r++ {
		copy(part.Slice(report.Solution, r), results[r].XLocal)
	}
	report.Energy = meter.TotalEnergy() * float64(report.Redundancy)
	if report.Time > 0 {
		report.AvgPower = report.Energy / report.Time
	}
	if cfg.KeepSegments {
		report.Meter = meter
	}
	report.Obs = cfg.Obs
	if ev := monitors[0].events; ev != nil {
		ev.Event(obs.Event{
			Kind: obs.ConvergedEvent, Iter: report.Iters, Clock: report.Time,
			RelRes: report.RelRes, Converged: report.Converged,
		})
	}
	return report, nil
}
