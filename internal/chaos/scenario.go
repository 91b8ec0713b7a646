// Package chaos is the adversarial-testing layer of the repository: a
// deterministic, seed-driven fault-campaign engine plus a battery of
// runtime invariants checked against every run.
//
// A campaign generates randomized scenarios — fault counts 0..k, faults
// at arbitrary iterations including inside reconstruction, checkpoint and
// rollback windows, back-to-back and simultaneous multi-rank faults,
// varying ranks/matrix/scheme — runs each through internal/core,
// and checks invariants that must hold for *every* correct execution:
// convergence to the fault-free tolerance (or a classified expected
// failure), per-rank clock monotonicity, energy conservation in the power
// meter, well-nested span trees whose counters reconcile with the clocks,
// traffic conservation, collective symmetry and run-to-run determinism.
//
// Every scenario serializes to a replayable flag string (see Args), so a
// failure found by a 10^5-scenario campaign reproduces from one shell
// line. The shrinking reporter (see Shrink) reduces a failing scenario to
// a local minimum before printing it.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/sparse"
)

// FaultSpec places one fault in a scenario: a class striking a rank at a
// solver iteration. Faults at iterations the run never reaches simply do
// not fire (the run report lists the faults that did).
type FaultSpec struct {
	Class fault.Class
	Rank  int
	Iter  int
}

func (f FaultSpec) String() string {
	return fmt.Sprintf("%s@%d:r%d", f.Class, f.Iter, f.Rank)
}

// Scenario is one fully-determined chaos run. Every field participates in
// the Args flag string, so a scenario replays exactly from its printed
// form.
type Scenario struct {
	Grid        int     // 2-D Laplacian grid side; the system has Grid^2 rows
	Ranks       int     // process count
	Scheme      string  // recovery scheme name (see ParseSchemeName)
	Tol         float64 // solver tolerance
	CkptEvery   int     // checkpoint interval in iterations (CR schemes)
	DetectDelay int     // SDC detection delay in iterations
	Seed        int64   // drives fault corruption patterns
	Faults      []FaultSpec
}

// defaultTol is the solver tolerance of every generated scenario and of
// a flag string that names none.
const defaultTol = 1e-10

// N returns the system size.
func (s *Scenario) N() int { return s.Grid * s.Grid }

// MaxIters returns the scenario's deterministic iteration budget: enough
// for the fault-free solve plus generous recovery headroom per fault.
// Runs that exhaust it with faults present are classified as expected
// failures, not invariant violations (e.g. F0 restarting from zero under
// a hard-fault barrage makes no progress by design).
func (s *Scenario) MaxIters() int {
	return 4*s.N() + 60*len(s.Faults) + 200
}

// Args renders the scenario as its canonical replayable flag string, e.g.
//
//	-grid 8 -ranks 4 -scheme LI-DVFS -tol 1e-10 -ckpt 6 -detect 2 -seed 7 -faults SNF@5:r2,SDC@9:r0
//
// ParseArgs inverts it exactly (see TestScenarioArgsRoundTrip).
func (s *Scenario) Args() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-grid %d -ranks %d -scheme %s -tol %s -ckpt %d -detect %d -seed %d",
		s.Grid, s.Ranks, s.Scheme, strconv.FormatFloat(s.Tol, 'g', -1, 64),
		s.CkptEvery, s.DetectDelay, s.Seed)
	if len(s.Faults) > 0 {
		b.WriteString(" -faults ")
		for i, f := range s.Faults {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.String())
		}
	}
	return b.String()
}

// ParseArgs decodes a scenario flag string produced by Args (tokens may
// appear in any order; booleans are presence flags). It validates every
// field, so it doubles as the campaign-config decoder fuzz target.
func ParseArgs(args string) (*Scenario, error) {
	s := &Scenario{Grid: 8, Ranks: 4, Scheme: "LI", Tol: defaultTol, Seed: 1}
	toks := strings.Fields(args)
	need := func(i int, flag string) (string, error) {
		if i+1 >= len(toks) {
			return "", fmt.Errorf("chaos: flag %s needs a value", flag)
		}
		return toks[i+1], nil
	}
	for i := 0; i < len(toks); i++ {
		switch toks[i] {
		case "-grid", "-ranks", "-ckpt", "-detect", "-seed":
			v, err := need(i, toks[i])
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad %s value %q: %v", toks[i], v, err)
			}
			switch toks[i] {
			case "-grid":
				s.Grid = int(n)
			case "-ranks":
				s.Ranks = int(n)
			case "-ckpt":
				s.CkptEvery = int(n)
			case "-detect":
				s.DetectDelay = int(n)
			case "-seed":
				s.Seed = n
			}
			i++
		case "-tol":
			v, err := need(i, "-tol")
			if err != nil {
				return nil, err
			}
			t, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad -tol value %q: %v", v, err)
			}
			s.Tol = t
			i++
		case "-scheme":
			v, err := need(i, "-scheme")
			if err != nil {
				return nil, err
			}
			s.Scheme = v
			i++
		case "-faults":
			v, err := need(i, "-faults")
			if err != nil {
				return nil, err
			}
			fs, err := parseFaults(v)
			if err != nil {
				return nil, err
			}
			s.Faults = fs
			i++
		default:
			return nil, fmt.Errorf("chaos: unknown scenario flag %q", toks[i])
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseFaults decodes the comma-separated CLASS@ITER:rRANK fault list.
func parseFaults(v string) ([]FaultSpec, error) {
	parts := strings.Split(v, ",")
	out := make([]FaultSpec, 0, len(parts))
	for _, p := range parts {
		at := strings.IndexByte(p, '@')
		colon := strings.LastIndexByte(p, ':')
		if at < 0 || colon < at || !strings.HasPrefix(p[colon:], ":r") {
			return nil, fmt.Errorf("chaos: bad fault spec %q (want CLASS@ITER:rRANK)", p)
		}
		cls, err := parseClass(p[:at])
		if err != nil {
			return nil, err
		}
		iter, err := strconv.Atoi(p[at+1 : colon])
		if err != nil {
			return nil, fmt.Errorf("chaos: bad fault iteration in %q: %v", p, err)
		}
		rank, err := strconv.Atoi(p[colon+2:])
		if err != nil {
			return nil, fmt.Errorf("chaos: bad fault rank in %q: %v", p, err)
		}
		out = append(out, FaultSpec{Class: cls, Iter: iter, Rank: rank})
	}
	return out, nil
}

// parseClass resolves a fault class name.
func parseClass(name string) (fault.Class, error) {
	for _, c := range fault.Classes() {
		if strings.EqualFold(name, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault class %q", name)
}

// Validate checks every scenario field for internal consistency.
func (s *Scenario) Validate() error {
	if s.Grid < 2 || s.Grid > 64 {
		return fmt.Errorf("chaos: grid %d out of range [2, 64]", s.Grid)
	}
	if s.Ranks < 1 || s.Ranks > s.N() {
		return fmt.Errorf("chaos: ranks %d out of range [1, %d]", s.Ranks, s.N())
	}
	if _, err := ParseSchemeName(s.Scheme); err != nil {
		return err
	}
	if !(s.Tol > 0 && s.Tol < 1) {
		return fmt.Errorf("chaos: tolerance %g out of range (0, 1)", s.Tol)
	}
	if s.CkptEvery < 0 {
		return fmt.Errorf("chaos: negative checkpoint interval %d", s.CkptEvery)
	}
	if s.DetectDelay < 0 || s.DetectDelay > 64 {
		return fmt.Errorf("chaos: detection delay %d out of range [0, 64]", s.DetectDelay)
	}
	for _, f := range s.Faults {
		if f.Iter < 1 || f.Iter > s.MaxIters() {
			return fmt.Errorf("chaos: fault %s iteration out of range [1, %d]", f, s.MaxIters())
		}
		if f.Rank < 0 || f.Rank >= s.Ranks {
			return fmt.Errorf("chaos: fault %s rank out of range [0, %d)", f, s.Ranks)
		}
		if int(f.Class) < 0 || int(f.Class) >= len(fault.Classes()) {
			return fmt.Errorf("chaos: fault %s has unknown class", f)
		}
	}
	return nil
}

// ParseSchemeName resolves a scheme name to its core spec: any spelling
// core.ParseScheme accepts except FF — a chaos scenario without a recovery
// scheme cannot take faults, and with zero faults every scheme degenerates
// to the fault-free path anyway.
func ParseSchemeName(name string) (core.SchemeSpec, error) {
	spec, ok := core.ParseScheme(name)
	if !ok || spec.Kind == core.FF {
		return core.SchemeSpec{}, fmt.Errorf("chaos: unknown scheme %q", name)
	}
	return spec, nil
}

// DefaultSchemes is the campaign's default scheme pool: the acceptance
// set of ten (forward recovery with and without DVFS, both single-level
// checkpoint/restart variants, exact state reconstruction, and lossy-
// compressed checkpoint/restart).
func DefaultSchemes() []string {
	return []string{"F0", "FI", "LI", "LI-DVFS", "LSI", "LSI-DVFS", "CR-M", "CR-D", "ESR", "LCR"}
}

// System builds the scenario's linear system (cached by the campaign
// runner; cheap enough to rebuild for one-off replays).
func (s *Scenario) System() (*sparse.CSR, []float64) {
	a := matgen.Laplacian2D(s.Grid)
	b, _ := matgen.RHS(a)
	return a, b
}

// RunConfig assembles the core.RunConfig for this scenario. keepSegments
// controls power-segment retention (required by the energy-conservation
// invariant; off for auxiliary reruns).
func (s *Scenario) RunConfig(a *sparse.CSR, b []float64, keepSegments bool) (core.RunConfig, error) {
	spec, err := ParseSchemeName(s.Scheme)
	if err != nil {
		return core.RunConfig{}, err
	}
	if spec.Checkpoints() {
		ck := s.CkptEvery
		if ck <= 0 {
			ck = 8
		}
		spec.CkptEvery = ck
	}
	faults := make([]fault.Fault, len(s.Faults))
	for i, f := range s.Faults {
		faults[i] = fault.Fault{Class: f.Class, Rank: f.Rank, Iter: f.Iter}
	}
	cfg := core.RunConfig{
		A:            a,
		B:            b,
		Ranks:        s.Ranks,
		Scheme:       spec,
		Tol:          s.Tol,
		MaxIters:     s.MaxIters(),
		DetectDelay:  s.DetectDelay,
		KeepSegments: keepSegments,
		Seed:         s.Seed,
	}
	if len(faults) > 0 {
		cfg.InjectorFactory = func() fault.Injector { return fault.NewSchedule(faults) }
	}
	return cfg, nil
}
