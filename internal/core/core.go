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
	FI // the initial guess is always zero, so FI recovers as F0 does
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

// SchemeSpec selects and configures a recovery scheme. Kind, Construct
// and DVFS are its identity, what a scheme name selects; the other fields
// tune it. A checkpointing scheme's stores are not settings:
// CheckpointLevels fixes them per Kind, LCR's compression ratio included.
type SchemeSpec struct {
	Kind SchemeKind
	// Construct picks the LI/LSI construction: the paper's localized CG
	// (default) or the exact prior-work LU/QR baseline.
	Construct recovery.Construction
	// DVFS enables the Section 4.2 power management for LI/LSI.
	DVFS bool
	// LocalTol is the localized construction tolerance (default 1e-6).
	LocalTol float64
	// CkptEvery checkpoints every N iterations (the checkpointing
	// schemes only: CR-M, CR-D, CR-2L, LCR). It is the interval of the
	// first checkpoint level; CR-2L writes its disk level at a fixed 4x
	// that interval. Zero derives the interval from Young's formula
	// using CkptMTBF.
	CkptEvery int
	// CkptMTBF (seconds) feeds Young's formula when CkptEvery is zero.
	CkptMTBF float64
	// UseDaly switches the derived interval to Daly's higher-order
	// formula (ablation extension).
	UseDaly bool
}

// RunConfig describes one resilient solve.
type RunConfig struct {
	// A and B are the system; every solve starts from x0 = 0.
	A *sparse.CSR
	B []float64

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

	Faults []fault.Fault
	// Checkpoints counts the checkpoints rank 0 took, over all Levels.
	Checkpoints int
	// Levels are rank 0's checkpoint levels after the solve, shallowest
	// first; nil when the scheme does not checkpoint.
	Levels     []CheckpointLevel
	Redundancy int

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

// CheckpointLevel is one checkpoint level of a run: the store it wrote
// to, one checkpoint's per-rank payload in bytes, its interval in
// iterations, the checkpoints it took and the rollbacks it served.
type CheckpointLevel struct {
	Store                   checkpoint.Store
	Bytes                   int64
	Every, Writes, Restores int
}

// buildScheme instantiates the per-rank scheme; policy is the first
// checkpoint level's (ckptPolicy), ckptBytes every rank's payload.
func buildScheme(cfg *RunConfig, policy checkpoint.Policy, ckptBytes int64) (recovery.Scheme, error) {
	switch cfg.Scheme.Kind {
	case FF:
		return nil, nil
	case F0, FI:
		return &recovery.F0{}, nil
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
	case CRM, CRD, CR2L, LCR:
		return &recovery.CR{Levels: CheckpointLevels(cfg.Scheme.Kind, cfg.Plat, policy), Bytes: ckptBytes}, nil
	case RD:
		return &recovery.RD{Replicas: 2}, nil
	case TMR:
		return &recovery.RD{Replicas: 3}, nil
	case ESR:
		return &recovery.ESR{}, nil
	}
	return nil, fmt.Errorf("core: unknown scheme kind %v", cfg.Scheme.Kind)
}

// deeperLevelEvery is how many of a checkpoint level's intervals make one
// interval of the next, deeper level: CR-2L writes its disk level every
// 4th memory interval.
const deeperLevelEvery = 4

// CheckpointLevels lists the checkpoint levels of a checkpointing scheme,
// shallowest first, the first written under policy; nil for every other
// scheme. CR-M and CR-D have one memory or disk level, LCR one shared
// disk behind an error-bounded compressor, CR-2L memory then disk. It is
// the one place a store is chosen: buildScheme hands the levels to
// recovery.CR, ckptPolicy prices Young's t_C as the first level's write,
// and the weak-scaling projection prices the same stores.
func CheckpointLevels(kind SchemeKind, plat *platform.Platform, policy checkpoint.Policy) []recovery.Level {
	mem := recovery.Level{Store: checkpoint.MemStore{Plat: plat}, Policy: policy}
	disk := recovery.Level{Store: checkpoint.DiskStore{Plat: plat}, Policy: policy}
	switch kind {
	case CRM:
		return []recovery.Level{mem}
	case CRD:
		return []recovery.Level{disk}
	case CR2L:
		disk.Policy.EveryIters *= deeperLevelEvery
		return []recovery.Level{mem, disk}
	case LCR:
		disk.Store = checkpoint.Lossy{Inner: disk.Store, Ratio: recovery.DefaultLossyRatio}
		return []recovery.Level{disk}
	}
	return nil
}

// resMonitor wires fault injection and recovery into the CG iteration.
type resMonitor struct {
	cfg      *RunConfig
	scheme   recovery.Scheme
	injector fault.Injector
	// rng drives the corruption patterns. Only a struck rank draws from
	// it, so it is seeded on first use: most ranks of most runs never pay
	// for seeding the 607-word source.
	rng *rand.Rand
	// faults is the run's fault log, kept on rank 0 only: every rank
	// sees the same faults, and the report reads rank 0's.
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
		if it.C.Rank() == 0 {
			m.faults = append(m.faults, *f)
		}
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

// RankIterTime approximates one rank's fault-free CG iteration time: its
// flops at f_max, three collectives, and a few halo messages out of a
// rowsPerRank block. It feeds Young's formula and the Fig. 9 projection.
func RankIterTime(plat *platform.Platform, flops int64, rowsPerRank, ranks int) float64 {
	t := plat.ComputeTime(flops, plat.FreqMax)
	t += 3 * plat.CollectiveTime(8, ranks)
	t += 4 * plat.P2PTime(8*int64(rowsPerRank/8+1))
	return t
}

// estimateIterTime is RankIterTime for distributed CG on a over ranks.
func estimateIterTime(a *sparse.CSR, ranks int, plat *platform.Platform) float64 {
	return RankIterTime(plat, (2*int64(a.NNZ())+12*int64(a.Rows))/int64(ranks), a.Rows/ranks, ranks)
}

// ckptPolicy resolves the policy of the run's first checkpoint level.
func ckptPolicy(cfg *RunConfig, ckptBytes int64) (checkpoint.Policy, error) {
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
	tC := CheckpointLevels(s.Kind, cfg.Plat, checkpoint.Policy{})[0].Store.WriteTime(ckptBytes, cfg.Ranks)
	iterSec := estimateIterTime(cfg.A, cfg.Ranks, cfg.Plat)
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
	// Every rank checkpoints the largest block's payload (recovery.CR.Bytes).
	ckptBytes := int64(8 * part.Size(0))
	policy, err := ckptPolicy(&cfg, ckptBytes)
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
		scheme, err := buildScheme(&cfg, policy, ckptBytes)
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
			Tol:      cfg.Tol,
			MaxIters: cfg.MaxIters,
			Monitor:  mon,
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
		if cr, ok := s.(*recovery.CR); ok {
			report.Levels = make([]CheckpointLevel, 0, len(cr.Levels))
			for _, lv := range cr.Levels {
				report.Levels = append(report.Levels, CheckpointLevel{lv.Store, cr.Bytes, lv.Policy.EveryIters, lv.Writes, lv.Restores})
				report.Checkpoints += lv.Writes
			}
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
