// Package service exposes the resilient solver as an HTTP/JSON service:
// scenario, verdict and sleep jobs are admitted through a bounded queue
// with explicit backpressure, executed on a worker pool, and answered
// with bitwise-faithful results. It also holds the serving skeleton the
// router shares: the admission/drain Gate and the Serve loop.
//
// The service's correctness contract is determinism: a job's response is
// byte-identical to running the same job offline through RunJob, for any
// worker count, queue order, or concurrency. The contract holds by
// construction — the HTTP workers and the offline oracle of
// cmd/resilience-load call the same RunJob — and is enforced end-to-end
// by the load generator and the scripts/check.sh service gate.
package service

import (
	"context"
	"fmt"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/core"
	"resilience/internal/obs"
)

// JobRequest is one unit of work submitted to POST /solve. Exactly one
// of Scenario or SleepMs selects the job kind:
//
//   - Scenario runs one resilient solve from a chaos replay flag string
//     (the canonical scenario codec, e.g.
//     "-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -seed 7 -faults SWO@5:r1").
//   - SleepMs holds a worker for the given wall-clock time and returns
//     nothing. It exists so load tests can fill the queue
//     deterministically and observe backpressure without burning CPU.
type JobRequest struct {
	// Scenario is a chaos replay flag string (see chaos.ParseArgs).
	Scenario string `json:"scenario,omitempty"`

	// Verdict upgrades a scenario job to a campaign verdict job: the
	// replica runs the scenario AND the chaos invariant battery and
	// returns the encoded verdict (see chaos.Verdict) alongside the usual
	// result fields. Verdict responses are deterministic and cacheable
	// like plain scenario jobs — the distributed chaos fleet is just
	// traffic to the serving fabric.
	Verdict bool `json:"verdict,omitempty"`
	// BreakInvariant deliberately fails the named invariant on verdict
	// jobs that inject at least one fault (the fleet's end-to-end
	// self-test: a campaign must detect the violation and shrink it
	// server-side). Requires Verdict; must name a known invariant.
	BreakInvariant string `json:"break_invariant,omitempty"`

	// SleepMs holds a worker for this many milliseconds (diagnostic).
	SleepMs int `json:"sleep_ms,omitempty"`

	// TimeoutMs caps the job's wall-clock time. Zero inherits the
	// server-wide job timeout; a positive value may only tighten it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Kind returns "scenario" or "sleep".
func (r *JobRequest) Kind() string {
	if r.Scenario != "" {
		return "scenario"
	}
	return "sleep"
}

// Validate rejects malformed requests before they reach the queue, so
// admission failures are the client's bill, not a worker's. CanonicalKey
// applies the same checks, with the same errors, as it keys.
func (r *JobRequest) Validate() error {
	_, err := r.parse()
	return err
}

// parse is Validate that keeps its work: a scenario job's flag string is
// parsed once and returned, so CanonicalKey keys what it validated (nil
// for the other kinds).
func (r *JobRequest) parse() (*chaos.Scenario, error) {
	set := 0
	if r.Scenario != "" {
		set++
	}
	if r.SleepMs > 0 {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("service: request must set exactly one of scenario, sleep_ms (got %d)", set)
	}
	if r.SleepMs < 0 {
		return nil, fmt.Errorf("service: negative sleep_ms %d", r.SleepMs)
	}
	if r.TimeoutMs < 0 {
		return nil, fmt.Errorf("service: negative timeout_ms %d", r.TimeoutMs)
	}
	if r.Verdict && r.Scenario == "" {
		return nil, fmt.Errorf("service: verdict requires a scenario job")
	}
	if r.BreakInvariant != "" {
		if !r.Verdict {
			return nil, fmt.Errorf("service: break_invariant requires verdict")
		}
		if !knownInvariant(r.BreakInvariant) {
			return nil, fmt.Errorf("service: unknown invariant %q", r.BreakInvariant)
		}
	}
	if r.Scenario == "" {
		return nil, nil
	}
	s, err := chaos.ParseArgs(r.Scenario)
	if err != nil {
		return nil, fmt.Errorf("service: bad scenario: %w", err)
	}
	return s, nil
}

// JobResult is the response body for a completed job. Float fields are
// hex float64 strings (strconv 'x' format), which round-trip every bit;
// the solution and residual history are folded to FNV-1a-64 hashes over
// their raw float64 bit patterns, so two results are byte-equal exactly
// when the underlying runs were bitwise-identical.
type JobResult struct {
	Kind string `json:"kind"`

	// Scenario jobs.
	Scheme       string `json:"scheme,omitempty"`
	Ranks        int    `json:"ranks,omitempty"`
	Iters        int    `json:"iters,omitempty"`
	Converged    bool   `json:"converged,omitempty"`
	RelRes       string `json:"relres,omitempty"`
	Time         string `json:"time,omitempty"`
	Energy       string `json:"energy,omitempty"`
	Restarts     int    `json:"restarts,omitempty"`
	Checkpoints  int    `json:"checkpoints,omitempty"`
	Faults       int    `json:"faults,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	SolutionHash string `json:"solution_hash,omitempty"`
	HistoryHash  string `json:"history_hash,omitempty"`

	// Verdict jobs: the encoded chaos verdict line (chaos.ParseVerdict
	// inverts it). The scenario fields above are filled too when the run
	// produced a report, so verdict jobs feed the same scheme histograms.
	Verdict string `json:"verdict,omitempty"`

	// Sleep jobs.
	SleptMs int `json:"slept_ms,omitempty"`
}

// RunJob executes one job to completion, honoring ctx for cancellation
// and deadlines. It is the single execution path shared by the service
// worker pool and the offline oracle of cmd/resilience-load; the
// returned recorder (scenario jobs only, nil otherwise) carries the
// run's per-rank counters for the /metrics exporter.
func RunJob(ctx context.Context, req JobRequest) (*JobResult, *obs.Recorder, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	switch req.Kind() {
	case "scenario":
		if req.Verdict {
			return runVerdictJob(ctx, req)
		}
		return runScenarioJob(ctx, req)
	default:
		return runSleepJob(ctx, req)
	}
}

// verdictRunner is the process-wide chaos runner behind verdict jobs. A
// single shared runner lets every verdict job on a replica reuse the
// cached fault-free baselines and linear systems (bounded caches; see
// chaos.Runner) — the runner's output is a pure function of the scenario,
// so sharing can only change speed, never bytes.
var verdictRunner = chaos.NewRunner(chaos.Options{})

// runVerdictJob executes one scenario through the chaos invariant
// battery and returns its verdict. A scenario whose run fails is still a
// verdict (status "fail" with a run-error violation) — failure is the
// campaign's data, not a transport error — except when the job's own
// context was cut, which is a deadline, not a finding.
func runVerdictJob(ctx context.Context, req JobRequest) (*JobResult, *obs.Recorder, error) {
	s, err := chaos.ParseArgs(req.Scenario)
	if err != nil {
		return nil, nil, err
	}
	res := verdictRunner.RunContext(ctx, 0, s)
	if res.Err != nil && ctx.Err() != nil {
		return nil, nil, res.Err
	}
	res.Break(req.BreakInvariant)
	v := chaos.VerdictOf(res)
	out := reportResult("verdict", res.Report)
	out.Verdict = v.Encode()
	return out, nil, nil
}

// reportResult renders the run fields of a scenario or verdict job's
// result from the run's report; a verdict job whose run failed has none.
func reportResult(kind string, rep *core.RunReport) *JobResult {
	if rep == nil {
		return &JobResult{Kind: kind}
	}
	return &JobResult{
		Kind:         kind,
		Scheme:       rep.Scheme,
		Ranks:        rep.Ranks,
		Iters:        rep.Iters,
		Converged:    rep.Converged,
		RelRes:       chaos.HexFloat(rep.RelRes),
		Time:         chaos.HexFloat(rep.Time),
		Energy:       chaos.HexFloat(rep.Energy),
		Restarts:     rep.Restarts,
		Checkpoints:  rep.Checkpoints,
		Faults:       len(rep.Faults),
		Seed:         rep.Seed,
		SolutionHash: chaos.HashFloats(rep.Solution),
		HistoryHash:  chaos.HashFloats(rep.History),
	}
}

// knownInvariant reports whether name is one of the battery's invariants.
func knownInvariant(name string) bool {
	for _, n := range chaos.InvariantNames() {
		if n == name {
			return true
		}
	}
	return false
}

func runScenarioJob(ctx context.Context, req JobRequest) (*JobResult, *obs.Recorder, error) {
	s, err := chaos.ParseArgs(req.Scenario)
	if err != nil {
		return nil, nil, err
	}
	a, b := s.System()
	cfg, err := s.RunConfig(a, b, false)
	if err != nil {
		return nil, nil, err
	}
	rec := obs.NewRecorder()
	cfg.Obs = rec
	rep, err := core.RunContext(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	return reportResult("scenario", rep), rec, nil
}

func runSleepJob(ctx context.Context, req JobRequest) (*JobResult, *obs.Recorder, error) {
	d := time.Duration(req.SleepMs) * time.Millisecond
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return &JobResult{Kind: "sleep", SleptMs: req.SleepMs}, nil, nil
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("service: sleep job interrupted: %w", ctx.Err())
	}
}
