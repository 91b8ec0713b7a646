package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"resilience"
	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
	"resilience/internal/cluster"
	"resilience/internal/core"
	"resilience/internal/power"
	"resilience/internal/service"
	"resilience/internal/service/cache"
	"resilience/internal/solver"
	"resilience/internal/sparse"
	"resilience/internal/vec"
)

// The layer probes. Each times calls into one layer's exported functions
// from outside, on inputs shaped like the workload's, and records one
// span. Together with the exact counts of the traced passes they give
// the per-layer ledger: estimates of the form probe time x exact count.
// reps shrinks under -quick.

// ledger collects the per-layer metrics of one traced run.
type ledger map[string]metricValue

func (l ledger) set(name string, v float64, unit string) { l[name] = metricValue{v, unit} }

// canonicalJob is the one job the per-job layers are probed with: small
// enough to run in a millisecond, with a checkpointing scheme and two
// faults so recovery, checkpoint and invariants all do work.
const canonicalJob = "-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -faults SWO@5:r1,SNF@6:r0"

// probeSystem is the linear system the solver-side probes run on: the
// workload's own for the solve workloads, the serving fabric's typical
// scenario (a 10x10 Laplacian on 4 ranks) for the serving ones.
type probeSystem struct {
	generate func() (*resilience.Matrix, []float64, error)
	ranks    int
}

func catalogSystem(name, scale string, ranks int) probeSystem {
	return probeSystem{ranks: ranks, generate: func() (*resilience.Matrix, []float64, error) {
		a, err := resilience.CatalogMatrix(name, scale)
		if err != nil {
			return nil, nil, err
		}
		b, _ := resilience.RHS(a)
		return a, b, nil
	}}
}

func laplacianSystem(grid, ranks int) probeSystem {
	return probeSystem{ranks: ranks, generate: func() (*resilience.Matrix, []float64, error) {
		a := resilience.Laplacian2D(grid)
		b, _ := resilience.RHS(a)
		return a, b, nil
	}}
}

// unitCosts are the probe results the share estimates multiply counts
// with. All are CPU costs: the shares are shares of process CPU time,
// which is what a CPU profile of the workload would show.
type unitCosts struct {
	rows, nnz int
	spmvNsNNZ float64 // ns per stored non-zero
	dotNs     float64 // ns per element
	axpyNs    float64
	fusedNs   float64
	// stepCPU is process CPU per CG iteration's communication on this
	// matrix and rank count: one halo exchange and two scalar allreduces
	// by all ranks, run back to back with no compute between. That is
	// where contention on the runtime's shared mailbox is at its worst,
	// so it bounds the workload's own cost from above.
	stepCPU time.Duration
	ffWall  time.Duration
	ffIters int
}

// clusterProbe runs steps ring-exchange + scalar-allreduce steps (or
// only the allreduce when ring is false) on p ranks and returns the wall
// time of one step.
func clusterProbe(p, steps int, ring bool) (wall time.Duration, err error) {
	payload := make([]float64, 16)
	_, err = cluster.Run(p, resilience.DefaultPlatform(), power.NewMeter(false), func(c *cluster.Comm) error {
		r := c.Rank()
		buf := make([]float64, len(payload))
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			if ring && p > 1 {
				c.Send((r+1)%p, 1, payload)
				c.RecvInto((r+p-1)%p, 1, buf)
			}
			c.AllreduceScalarSum(float64(r))
		}
		c.Barrier()
		if r == 0 {
			wall = time.Since(t0) / time.Duration(steps)
		}
		return nil
	})
	return wall, err
}

// probeKernels fills the matgen, sparse, vec, cluster and solver rows.
func probeKernels(tr *tracer, led ledger, sys probeSystem, tol float64, reps int) (*resilience.Matrix, []float64, unitCosts, error) {
	var u unitCosts
	var a *resilience.Matrix
	var b []float64
	var err error
	gen := medianTime(3, func() {
		tr.probe("matgen.generate", func() { a, b, err = sys.generate() })
	})
	if err != nil {
		return nil, nil, u, err
	}
	led.set("matgen.generate_ms", ms(gen), "ms")
	led.set("matgen.laplacian_us", us(medianTime(reps, func() {
		l := resilience.Laplacian2D(8)
		resilience.RHS(l)
	})), "us")

	// sparse: the full-matrix SpMV the ranks together perform once per
	// CG iteration.
	u.rows, u.nnz = a.Rows, a.NNZ()
	x, y := make([]float64, a.Rows), make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%13) + 0.5
	}
	spmvReps := 1 + 20_000_000/(u.nnz+1)
	if spmvReps > 20*reps {
		spmvReps = 20 * reps
	}
	var spmv time.Duration
	tr.probe("sparse.MulVec", func() { spmv = medianTime(spmvReps, func() { a.MulVec(y, x) }) })
	u.spmvNsNNZ = float64(spmv) / float64(u.nnz)
	led.set("sparse.spmv_ns_per_nnz", u.spmvNsNNZ, "ns")
	led.set("sparse.spmv_gflops", 2*float64(u.nnz)/float64(spmv), "Gflop/s")
	// Computed from array sizes (values, column indices, row pointers,
	// x and y once each); cache misses are not in it.
	led.set("sparse.spmv_bytes_computed", float64(16*u.nnz+8*(a.Rows+1)+16*a.Rows), "B")
	led.set("sparse.partition_us", us(medianTime(reps, func() { sparse.NewPartition(a.Rows, sys.ranks) })), "us")

	// vec: on a rank-local block, the length the solver's kernels see.
	n := a.Rows / sys.ranks
	vx, vy := x[:n], y[:n]
	const inner = 200
	perElem := func(fn func()) float64 {
		d := medianTime(reps, func() {
			for i := 0; i < inner; i++ {
				fn()
			}
		})
		return float64(d) / float64(inner*n)
	}
	var sink float64
	tr.probe("vec", func() {
		u.dotNs = perElem(func() { sink += vec.Dot(vx, vy) })
		u.axpyNs = perElem(func() { vec.Axpy(1e-9, vx, vy) })
		u.fusedNs = perElem(func() { sink += vec.AxpyDot(1e-9, vx, vy) })
	})
	_ = sink
	led.set("vec.dot_ns_per_elem", u.dotNs, "ns")
	led.set("vec.axpy_ns_per_elem", u.axpyNs, "ns")
	led.set("vec.fused_ns_per_elem", u.fusedNs, "ns")

	// cluster: host cost of the runtime's messages and collectives.
	steps := 10 * reps
	near := 4 // the probed rank count nearer the system's, on a log scale
	if sys.ranks > 11 {
		near = 32
	}
	for _, p := range []int{4, 32} {
		var step, coll time.Duration
		tr.probe("cluster.step p="+strconv.Itoa(p), func() {
			if step, err = clusterProbe(p, steps, true); err == nil && p == near {
				coll, err = clusterProbe(p, steps, false)
			}
		})
		if err != nil {
			return nil, nil, u, err
		}
		led.set("cluster.step_us.p"+strconv.Itoa(p), us(step), "us")
		if p == near {
			led.set("cluster.allreduce_us", us(coll), "us")
		}
	}
	led.set("cluster.runtime_start_us", us(medianTime(reps, func() {
		cluster.Run(4, resilience.DefaultPlatform(), power.NewMeter(false), func(*cluster.Comm) error { return nil })
	})), "us")

	// solver: operator build, one iteration's communication on this
	// matrix, and the fault-free iteration.
	part := sparse.NewPartition(a.Rows, sys.ranks)
	var build time.Duration
	tr.probe("solver.NewLocalOp+step", func() {
		cluster.Run(sys.ranks, resilience.DefaultPlatform(), power.NewMeter(false), func(c *cluster.Comm) error {
			c.Barrier()
			t := time.Now()
			op := solver.NewLocalOp(c, a, part)
			if c.Rank() == 0 {
				build = time.Since(t)
			}
			xl := make([]float64, op.N)
			c.Barrier()
			c0 := cpuTime()
			for i := 0; i < steps; i++ {
				op.GatherHalo(c, xl)
				c.AllreduceScalarSum(1)
				c.AllreduceScalarSum(1)
			}
			c.Barrier()
			if c.Rank() == 0 {
				u.stepCPU = (cpuTime() - c0) / time.Duration(steps)
			}
			return nil
		})
	})
	led.set("solver.localop_build_us", us(build), "us")
	var ff *resilience.Report
	tr.probe("resilience.Solve FF", func() {
		u.ffWall = medianTime(3, func() {
			ff, err = resilience.Solve(a, b, resilience.SolveOptions{Ranks: sys.ranks, Tol: tol})
		})
	})
	if err != nil {
		return nil, nil, u, err
	}
	u.ffIters = ff.Iters
	led.set("solver.iters", float64(ff.Iters), "count")
	led.set("solver.host_us_per_iter", us(u.ffWall)/float64(ff.Iters), "us")
	return a, b, u, nil
}

// probeJob fills the core, obs, power, chaos and service rows from the
// canonical job.
func probeJob(tr *tracer, led ledger, reps int) error {
	scen, err := chaos.ParseArgs(canonicalJob)
	if err != nil {
		return err
	}
	a, b := scen.System()
	runCore := func(observe, segments bool) (time.Duration, error) {
		var runErr error
		d := medianTime(reps, func() {
			cfg, err := scen.RunConfig(a, b, segments)
			if err != nil {
				runErr = err
				return
			}
			if observe {
				cfg.Obs = resilience.NewRecorder()
			}
			if _, err := core.Run(cfg); err != nil {
				runErr = err
			}
		})
		return d, runErr
	}
	var plain, observed, segmented, both time.Duration
	tr.probe("core.Run", func() {
		if plain, err = runCore(false, false); err != nil {
			return
		}
		if observed, err = runCore(true, false); err != nil {
			return
		}
		if segmented, err = runCore(false, true); err != nil {
			return
		}
		both, err = runCore(true, true)
	})
	if err != nil {
		return err
	}
	led.set("core.run_ms", ms(plain), "ms")
	led.set("obs.recorder_overhead_ratio", float64(observed)/float64(plain), "ratio")
	led.set("power.segments_overhead_ratio", float64(segmented)/float64(plain), "ratio")

	led.set("chaos.parse_us", us(medianTime(10*reps, func() { chaos.ParseArgs(canonicalJob) })), "us")
	led.set("chaos.system_us", us(medianTime(reps, func() { scen.System() })), "us")
	runner := chaos.NewRunner(chaos.Options{})
	runner.Run(0, scen) // fills the runner's baseline and system caches
	var verdict time.Duration
	tr.probe("chaos.Runner.RunContext", func() {
		verdict = medianTime(reps, func() {
			chaos.VerdictOf(runner.RunContext(context.Background(), 0, scen)).Encode()
		})
	})
	led.set("chaos.verdict_ms", ms(verdict), "ms")
	// What the verdict costs beyond the run it checks (the run has a
	// recorder and power segments attached, as the battery needs).
	led.set("chaos.invariants_share", 1-float64(both)/float64(verdict), "ratio")

	req := service.JobRequest{Scenario: canonicalJob}
	led.set("service.canonical_us", us(medianTime(10*reps, func() { service.CanonicalKey(req) })), "us")
	var jobErr error
	runJob := func(r service.JobRequest) time.Duration {
		return medianTime(reps, func() {
			if _, _, err := service.RunJob(context.Background(), r); err != nil {
				jobErr = err
			}
		})
	}
	tr.probe("service.RunJob", func() {
		led.set("service.runjob_scenario_ms", ms(runJob(req)), "ms")
		led.set("service.runjob_verdict_ms", ms(runJob(service.JobRequest{Scenario: canonicalJob, Verdict: true})), "ms")
	})
	if jobErr != nil {
		return jobErr
	}

	// The handler without a socket: decode, canonical key, cache, and on
	// a miss admission, queue, solve and encode.
	srv := service.New(service.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	var badCode int
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			badCode = rec.Code
		}
	}
	hot, err := json.Marshal(req)
	if err != nil {
		return err
	}
	serve(hot)
	miss := 0
	tr.probe("service.Server.ServeHTTP", func() {
		led.set("service.handler_hit_us", us(medianTime(10*reps, func() { serve(hot) })), "us")
		led.set("service.handler_miss_ms", ms(medianTime(reps, func() {
			miss++
			body, _ := json.Marshal(service.JobRequest{Scenario: canonicalJob + " -seed " + strconv.Itoa(1000+miss)})
			serve(body)
		})), "ms")
	})
	if badCode != 0 {
		return fmt.Errorf("handler probe: status %d", badCode)
	}

	// The result cache alone, at the service's default size and full, so
	// every put evicts.
	c := cache.New[[]byte](4096, 16)
	keys := make([]string, 8192)
	for i := range keys {
		keys[i] = "j1|scenario|" + canonicalJob + " -seed " + strconv.Itoa(i)
		c.Put(keys[i], hot)
	}
	resident := keys[4096:]
	i := 0
	led.set("cache.get_hit_ns", float64(medianTime(reps, func() {
		for j := 0; j < 1000; j++ {
			c.Get(resident[i%len(resident)])
			i++
		}
	}))/1000, "ns")
	led.set("cache.put_ns", float64(medianTime(reps, func() {
		for j := 0; j < 1000; j++ {
			c.Put(keys[i%len(keys)]+"x", hot)
			i++
		}
	}))/1000, "ns")
	return nil
}

// probeFabric fills the router, service-stage and fleet rows against a
// live fabric: a hot key through the router and straight to its owner,
// a hot batch, a handful of misses, and one campaign run both over HTTP
// and on the in-process oracle.
func probeFabric(tr *tracer, led ledger, fab *fabric, seed int64, reps int) error {
	hot, err := json.Marshal(service.JobRequest{Scenario: canonicalJob + " -seed " + strconv.FormatInt(1_000_000+seed, 10)})
	if err != nil {
		return err
	}
	postOK := func(url string, body []byte) (string, error) {
		code, reply, xcache, err := fab.post(url, body)
		if err != nil {
			return "", err
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("POST %s: status %d: %s", url, code, reply)
		}
		return xcache, nil
	}
	if _, err := postOK(fab.url()+"/solve", hot); err != nil {
		return err
	}
	// The owner is the replica that already holds the key.
	owner := ""
	for _, ts := range fab.repSrv {
		xc, err := postOK(ts.URL+"/solve", hot)
		if err != nil {
			return err
		}
		if xc == "hit" {
			owner = ts.URL
		}
	}
	if owner == "" {
		return fmt.Errorf("router probe: no replica holds the hot key")
	}
	var postErr error
	timePost := func(url string, body []byte, n int) time.Duration {
		return medianTime(n, func() {
			if _, err := postOK(url, body); err != nil {
				postErr = err
			}
		})
	}
	var direct, routed, batch time.Duration
	const batchItems = 64
	tr.probe("router hot key", func() {
		direct = timePost(owner+"/solve", hot, 20*reps)
		routed = timePost(fab.url()+"/solve", hot, 20*reps)
		var items bytes.Buffer
		items.WriteByte('[')
		for i := 0; i < batchItems; i++ {
			if i > 0 {
				items.WriteByte(',')
			}
			items.Write(hot)
		}
		items.WriteByte(']')
		batch = timePost(fab.url()+"/batch", items.Bytes(), reps)
	})
	// A few misses, so every service stage has samples in the span ring
	// whatever the workload sent.
	for i := 0; i < 8; i++ {
		body, _ := json.Marshal(service.JobRequest{Scenario: canonicalJob + " -seed " + strconv.FormatInt(2_000_000+seed*100+int64(i), 10)})
		if _, err := postOK(fab.url()+"/solve", body); err != nil {
			return err
		}
	}
	if postErr != nil {
		return postErr
	}
	led.set("router.forward_overhead_us", us(routed-direct), "us")
	led.set("router.batch_overhead_us_per_item", us(batch)/batchItems-us(direct), "us")

	stages, err := fab.stageMedians()
	if err != nil {
		return err
	}
	for _, s := range []string{"cache-lookup", "admission-wait", "queue", "solve", "encode"} {
		led.set("service.stage_us."+s, stages[s], "us")
	}

	// One campaign both ways. Each side first runs a campaign on another
	// seed, so both measure with their baseline caches filled and neither
	// has seen the measured scenarios.
	n := 16 * reps
	campaign := func(s int64) fleet.Options {
		return fleet.Options{
			Campaign: chaos.Options{N: n, Seed: s, MaxFaults: 3, Schemes: paperSchemes},
			Batch:    fleetBatch, Workers: clients(),
		}
	}
	rate := func(ev fleet.Evaluator, name string) (float64, error) {
		if _, err := fleet.Run(context.Background(), campaign(seed+7_000_000), ev); err != nil {
			return 0, err
		}
		var runErr error
		d := tr.probe(name, func() { _, runErr = fleet.Run(context.Background(), campaign(seed+8_000_000), ev) })
		return float64(n) / d.Seconds(), runErr
	}
	oracleRate, err := rate(fleet.NewOracle("", clients()), "fleet.Run oracle")
	if err != nil {
		return err
	}
	httpRate, err := rate(fleet.NewClient(fab.url(), ""), "fleet.Run http")
	if err != nil {
		return err
	}
	led.set("fleet.oracle_scenarios_per_s", oracleRate, "1/s")
	led.set("fleet.transport_share", 1-httpRate/oracleRate, "ratio")
	return nil
}
