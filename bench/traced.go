package main

import (
	"runtime"
	"strconv"
	"strings"
)

// runTraced produces the per-layer ledger of one workload. It measures
// the workload twice in one process — passes without spans, then passes
// with them, whose ratio is the tracing overhead — and then runs the
// layer probes on inputs shaped like the workload's. End-to-end metrics
// never come from here.
func runTraced(cfg config) (result, detail, error) {
	reps, minPasses, share := 30, 2, cfg.seconds/3
	if cfg.quick {
		reps, minPasses, share = 3, 1, 0
	}
	w, _, err := timedSetup(cfg)
	if err != nil {
		return result{}, detail{}, err
	}
	defer w.close()

	led := make(ledger)
	tr := newTracer()

	// The workload's own fabric, when it has one: its scrape endpoints
	// are read around the traced passes.
	var fab *fabric
	var before, after fabricCounters
	switch sw := w.(type) {
	case *fleetCold:
		fab = sw.fab
	case *serveHot:
		fab = sw.fab
	}
	plain := measure(w, nil, 0, minPasses, share)
	if fab != nil {
		if before, err = fab.scrape(); err != nil {
			return result{}, detail{}, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := measure(w, tr, plain.passes(), minPasses, share)
	runtime.ReadMemStats(&m1)
	if fab != nil {
		if after, err = fab.scrape(); err != nil {
			return result{}, detail{}, err
		}
	}
	failed := plain.Failed + traced.Failed + w.verify()

	ops := float64(traced.Ops)
	led.set("client.latency_p99_ms", quantile(traced.Lat, 0.99), "ms")
	led.set("runtime.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, "count")
	led.set("runtime.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/ops, "KiB")
	led.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	led.set("trace.overhead_ratio", plain.opsPerS()/traced.opsPerS(), "ratio")

	// Probes. The solve workloads are probed on their own system; the
	// serving ones on the fabric's typical scenario.
	sys := laplacianSystem(10, 4)
	solve, isSolve := w.(*solveWorkload)
	if isSolve {
		scale := "ci"
		if cfg.quick {
			scale = "tiny"
		}
		sys = catalogSystem(solve.matrix, scale, solve.ranks)
	}
	if !isSolve {
		// The solver-side counts of a serving workload come from one
		// traced basket on the probe system.
		solve = &solveWorkload{cfg: cfg, ranks: sys.ranks}
	}
	a, b, u, err := probeKernels(tr, led, sys, solve.tol(), reps)
	if err != nil {
		return result{}, detail{}, err
	}
	if err := probeJob(tr, led, reps); err != nil {
		return result{}, detail{}, err
	}
	if !isSolve {
		solve.a, solve.b = a, b
		if err := solve.setup(); err != nil {
			return result{}, detail{}, err
		}
		if p := solve.pass(0, tr); p.failed > 0 {
			failed += p.failed
		}
	}
	own := fab != nil
	if !own {
		// A solve workload has no fabric; the serving-side rows come from
		// one booted for the probes, and its counters cover their traffic.
		if fab, err = bootFabric(0); err != nil {
			return result{}, detail{}, err
		}
		defer fab.close()
	}
	if err := probeFabric(tr, led, fab, cfg.seed, reps); err != nil {
		return result{}, detail{}, err
	}
	if !own {
		if after, err = fab.scrape(); err != nil {
			return result{}, detail{}, err
		}
	}
	lookups := (after.hits - before.hits) + (after.misses - before.misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = (after.hits - before.hits) / lookups
	}
	led.set("cache.hit_ratio", hitRatio, "ratio")
	led.set("cache.evictions", after.evictions-before.evictions, "count")
	led.set("cache.coalesced", after.coalesced-before.coalesced, "count")
	led.set("router.rejected_429", after.rejected-before.rejected, "count")
	led.set("router.rerouted", after.rerouted-before.rerouted, "count")
	led.set("router.forward_p50_us", after.forwardP50s*1e6, "us")

	// Exact counts of the traced solves, and what they say with the
	// probe costs.
	st := solve.stats
	iters, solves := float64(st.iters), float64(st.solves)
	ffIters := float64(u.ffIters)
	led.set("cluster.msgs_per_iter", float64(st.msgs)/iters, "count")
	led.set("cluster.bytes_per_iter", float64(st.bytes)/iters, "B")
	led.set("cluster.collectives_per_iter", float64(st.collectives)/iters/float64(sys.ranks), "count")
	led.set("recovery.extra_iters", iters-solves*ffIters, "count")
	led.set("recovery.restarts", float64(st.restarts), "count")
	led.set("checkpoint.writes", float64(st.checkpoints), "count")
	// A Solve is a fault-free baseline run plus the faulted run; what the
	// faulted runs cost beyond fault-free iterations at the same rate is
	// the recovery cost.
	faulted := st.wall.Seconds() - solves*u.ffWall.Seconds()
	led.set("recovery.host_ms_per_fault", 1e3*(faulted-u.ffWall.Seconds()*iters/ffIters)/float64(st.faults), "ms")
	led.set("core.ff_share", solves*u.ffWall.Seconds()/st.wall.Seconds(), "ratio")

	// Shares of the traced passes' process CPU time, each an estimate of
	// the form probe cost x exact count.
	cpu := traced.CPU.Seconds()
	var spmvS, stepS, otherS float64
	perIterCluster := u.stepCPU.Seconds()
	switch sw := w.(type) {
	case *solveWorkload:
		// Every run multiplies once per iteration, once for the initial
		// residual and once per restart; the baseline run has no restarts.
		allIters := iters + solves*ffIters
		spmvS = (allIters + 2*solves + float64(st.restarts)) * float64(u.nnz) * u.spmvNsNNZ * 1e-9
		stepS = allIters * perIterCluster
		// One dot, one fused axpy-dot and two axpy-shaped updates per
		// iteration, over all rows.
		otherS = allIters * float64(u.rows) * (u.dotNs + u.fusedNs + 2*u.axpyNs) * 1e-9
	case *fleetCold:
		for _, v := range sw.verdicts {
			g := gridOf(v.Args)
			spmvS += float64(v.Iters) * float64(5*g*g-4*g) * u.spmvNsNNZ * 1e-9
			stepS += float64(v.Iters) * perIterCluster
		}
		// The job itself, measured warm on one thread, plus what the
		// router adds per batch item; spmv and step are inside the job.
		// The transport share is the workload's own rate against the
		// oracle's, in place of the probe campaign's.
		otherS = ops*(led["service.runjob_verdict_ms"].Value*1e-3+led["router.batch_overhead_us_per_item"].Value*1e-6) - spmvS - stepS
		led.set("fleet.transport_share", 1-traced.opsPerS()/led["fleet.oracle_scenarios_per_s"].Value, "ratio")
	case *serveHot:
		// No solve runs: the handler's hit path and the router hop.
		otherS = ops * (led["service.handler_hit_us"].Value + led["router.forward_overhead_us"].Value) * 1e-6
	}
	led.set("sparse.spmv_share", spmvS/cpu, "ratio")
	led.set("cluster.step_share", stepS/cpu, "ratio")
	led.set("residual_share", 1-(spmvS+stepS+otherS)/cpu, "ratio")
	evaluations := float64(16 * reps) // the probe campaign's
	if fc, ok := w.(*fleetCold); ok {
		evaluations = float64(fc.evaluations)
	}
	led.set("fleet.evaluations", evaluations, "count")
	led.set("runtime.peak_rss_mb", peakRSSMB(), "MiB")

	input, sim := w.digests()
	traced.Failed = failed
	d := newDetail(cfg, input, sim, traced)
	d.Spans, d.SpansDropped = tr.totals(), tr.dropped
	if cfg.traceDir != "" {
		if err := tr.write(cfg.traceDir, cfg.workload); err != nil {
			return result{}, detail{}, err
		}
		d.TraceFile = cfg.traceDir + "/" + cfg.workload + ".trace.json"
	}
	return result{Correct: failed == 0, Attempted: plain.Ops + traced.Ops, Failed: failed, Metrics: led}, d, nil
}

// gridOf reads the -grid value out of a canonical scenario string.
func gridOf(args string) int {
	f := strings.Fields(args)
	for i := 0; i+1 < len(f); i++ {
		if f[i] == "-grid" {
			g, _ := strconv.Atoi(f[i+1]) // canonical strings parse; 0 otherwise
			return g
		}
	}
	return 0
}
