package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings, straight from the flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	quick    bool
	// inProcess measures in this process instead of in round processes:
	// under -quick, and when this process is being profiled.
	inProcess bool
}

// clients is the closed-loop client count: the real callers (chaos-fleet,
// resilience-load, a library user) each wait for their reply, so load is
// c goroutines that each send the next op when the last one returns.
func clients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// A workload is set up once and then runs timed passes. A pass is a
// fixed amount of work, set by the benchmark; a run repeats passes until
// its measuring time is spent, so a faster program runs more passes,
// never different ones.
type workload interface {
	// setup generates the inputs from the seed, boots the servers, fills
	// the caches and runs the warm-up pass.
	setup() error
	// pass runs timed pass k. With a tracer it records one root span per
	// op and a child span around each call into a layer.
	pass(k int, tr *tracer) passResult
	// verify runs the output checks too slow for the timed section and
	// returns how many more ops failed.
	verify() (failed int)
	// digests hash the generated inputs and the simulated statistics of
	// the pass-0 ops. They do not depend on how many passes ran.
	digests() (input, sim string)
	close()
}

type passResult struct {
	ops    int
	failed int
	lat    []float64 // latency samples in ms; a failed op contributes none
}

var workloadNames = []string{"solve_kernel", "solve_comm", "fleet_cold", "serve_hot"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "solve_kernel":
		return newSolveWorkload(cfg, "bcsstk16", 4), nil
	case "solve_comm":
		return newSolveWorkload(cfg, "bcsstk06", 16), nil
	case "fleet_cold":
		return &fleetCold{cfg: cfg}, nil
	case "serve_hot":
		return &serveHot{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// measured is a timed section: totals over its passes, the pooled
// latency samples, and the per-pass values for the reviewer.
type measured struct {
	Ops      int           `json:"ops"`
	Failed   int           `json:"failed"`
	Wall     time.Duration `json:"wall_ns"`
	CPU      time.Duration `json:"cpu_ns"`
	Lat      []float64     `json:"lat_ms"`
	Rate     []float64     `json:"pass_ops_per_s"`     // per pass: correct ops per second
	CPUPerOp []float64     `json:"pass_cpu_ms_per_op"` // per pass: process CPU ms per op
}

// opsPerS is correct ops completed per second of the timed section.
func (m measured) opsPerS() float64 { return float64(m.Ops-m.Failed) / m.Wall.Seconds() }

// cpuMsPerOp is process user+system CPU over the timed section per op.
func (m measured) cpuMsPerOp() float64 { return ms(m.CPU) / float64(m.Ops) }

func (m measured) passes() int { return len(m.Rate) }

// add pools another timed section into m.
func (m *measured) add(o measured) {
	m.Ops += o.Ops
	m.Failed += o.Failed
	m.Wall += o.Wall
	m.CPU += o.CPU
	m.Lat = append(m.Lat, o.Lat...)
	m.Rate = append(m.Rate, o.Rate...)
	m.CPUPerOp = append(m.CPUPerOp, o.CPUPerOp...)
}

// measure runs passes first..first+n-1 where n is the smallest count
// that is at least minPasses and fills the given measuring time.
func measure(w workload, tr *tracer, first, minPasses int, seconds float64) measured {
	var m measured
	start := time.Now()
	for k := 0; k < minPasses || time.Since(start).Seconds() < seconds; k++ {
		c0, t0 := cpuTime(), time.Now()
		p := w.pass(first+k, tr)
		wall, cpu := time.Since(t0), cpuTime()-c0
		m.add(measured{
			Ops: p.ops, Failed: p.failed, Wall: wall, CPU: cpu, Lat: p.lat,
			Rate:     []float64{float64(p.ops-p.failed) / wall.Seconds()},
			CPUPerOp: []float64{ms(cpu) / float64(p.ops)},
		})
	}
	return m
}

// timedSetup builds the workload and times its set-up.
func timedSetup(cfg config) (workload, float64, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	if err := w.setup(); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	return w, time.Since(t).Seconds(), nil
}

// rounds is how many fresh processes share one run's measuring time.
//
// Set-up must be timed in fresh processes: one-time initialisation (lazy
// tables, package-level caches) is paid once per process, and repeating
// set-up inside one process would hide exactly the work a later change
// might move there. The timed passes are split over the same processes
// because a process keeps the speed it started with — identical passes
// of solve_comm agree within a process and differ by 20 % between two —
// so a run that pools three processes is steadier than one that times
// three times as long in a single one.
const rounds = 3

// round is one process's share of a run: its set-up time, its timed
// section with the verify failures folded in, and its digests.
type round struct {
	SetupS   float64  `json:"setup_s"`
	Measured measured `json:"measured"`
	Input    string   `json:"input_digest"`
	Sim      string   `json:"sim_digest"`
}

// runRound sets the workload up, measures it for cfg.seconds (two passes
// at least) and checks its outputs, all in this process.
func runRound(cfg config) (round, error) {
	w, setupS, err := timedSetup(cfg)
	if err != nil {
		return round{}, err
	}
	defer w.close()
	r := round{SetupS: setupS, Measured: measure(w, nil, 0, 2, cfg.seconds)}
	r.Measured.Failed += w.verify()
	r.Input, r.Sim = w.digests()
	return r, nil
}

// childRound runs one round in a fresh process of this binary.
func childRound(cfg config) (round, error) {
	var r round
	self, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(self, "-round", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("round process: %w", err)
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("round process output: %w", err)
	}
	return r, nil
}

// detail is the reviewer-facing line printed before the result line.
type detail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Quick    bool    `json:"quick,omitempty"`
	Clients  int     `json:"clients"`
	Passes   int     `json:"passes"`
	TimedS   float64 `json:"timed_s"`
	// OpsAttempted and OpsFailed repeat the result line's counts.
	OpsAttempted int `json:"ops_attempted"`
	OpsFailed    int `json:"ops_failed"`
	// PassOpsPerS and PassCPUMs show how steady the run was; the reported
	// values are over the whole timed section.
	PassOpsPerS []float64 `json:"pass_ops_per_s"`
	PassCPUMs   []float64 `json:"pass_cpu_ms_per_op"`
	// LatencySamples is the sample count behind the percentiles;
	// BeyondP95 is how many of them lie beyond the reported p95.
	LatencySamples int       `json:"latency_samples"`
	BeyondP95      int       `json:"beyond_p95"`
	SetupSamplesS  []float64 `json:"setup_samples_s,omitempty"`
	InputDigest    string    `json:"input_digest"`
	SimDigest      string    `json:"sim_digest"`
	// InputsChanged and SimChanged compare against the values committed
	// in digests.json (seed 1, full size only). They inform the reviewer
	// and never fail the run: a correctness change may move them.
	InputsChanged *bool                 `json:"inputs_changed,omitempty"`
	SimChanged    *bool                 `json:"sim_changed,omitempty"`
	Spans         map[string]spanTotals `json:"spans,omitempty"`
	SpansDropped  int                   `json:"spans_dropped,omitempty"`
	TraceFile     string                `json:"trace_file,omitempty"`
}

// runUntraced measures the end-to-end metrics of one workload: rounds
// fresh processes one after the other, each with a share of the measuring
// time, pooled. With cfg.inProcess it is one round in this process.
func runUntraced(cfg config) (result, detail, error) {
	var m measured
	var setups []float64
	var first round
	n, run := rounds, childRound
	if cfg.inProcess {
		n, run = 1, runRound
	}
	if cfg.quick {
		cfg.seconds = 0
	}
	cfg.seconds /= float64(n)
	for i := 0; i < n; i++ {
		r, err := run(cfg)
		if err != nil {
			return result{}, detail{}, err
		}
		if i == 0 {
			first = r
		} else if r.Input != first.Input || r.Sim != first.Sim {
			// The same seed gave another process other inputs or other
			// simulated statistics: nothing it measured can be trusted.
			r.Measured.Failed = r.Measured.Ops
		}
		m.add(r.Measured)
		setups = append(setups, r.SetupS)
	}
	p95 := quantile(m.Lat, 0.95)
	beyond := 0
	for _, l := range m.Lat {
		if l > p95 {
			beyond++
		}
	}
	res := result{
		Correct:   m.Failed == 0,
		Attempted: m.Ops,
		Failed:    m.Failed,
		Metrics: map[string]metricValue{
			"setup_s":        {median(setups), "s"},
			"ops_per_s":      {m.opsPerS(), "1/s"},
			"latency_p50_ms": {median(m.Lat), "ms"},
			"latency_p95_ms": {p95, "ms"},
			"cpu_ms_per_op":  {m.cpuMsPerOp(), "ms"},
		},
	}
	d := newDetail(cfg, first.Input, first.Sim, m)
	d.BeyondP95 = beyond
	d.SetupSamplesS = setups
	return res, d, nil
}

func newDetail(cfg config, input, sim string, m measured) detail {
	d := detail{
		Workload: cfg.workload, Seed: cfg.seed, Quick: cfg.quick, Clients: clients(),
		Passes: m.passes(), TimedS: m.Wall.Seconds(),
		OpsAttempted: m.Ops, OpsFailed: m.Failed, LatencySamples: len(m.Lat),
		PassOpsPerS: m.Rate, PassCPUMs: m.CPUPerOp,
		InputDigest: input, SimDigest: sim,
	}
	if want, ok := committedDigests[cfg.workload]; ok && cfg.seed == 1 && !cfg.quick {
		in, sim := input != want.Input, sim != want.Sim
		d.InputsChanged, d.SimChanged = &in, &sim
	}
	return d
}
