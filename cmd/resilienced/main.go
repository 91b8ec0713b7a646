// Command resilienced serves resilient solves over HTTP/JSON.
//
// Jobs (scenario replays, their chaos verdicts, diagnostic sleeps) are
// POSTed to /solve one at a time, or to /batch as a JSON array that
// is answered item by item with the bytes /solve would return. A
// content-addressed result cache with
// single-flight dedup answers repeated jobs ahead of admission; new
// work is admitted through a bounded queue and executed on a worker
// pool. When the queue is full the daemon answers 429 with a
// Retry-After hint instead of stalling the client. /healthz reports
// liveness and queue depth, /metrics exports the counters in Prometheus
// text format. SIGINT/SIGTERM drains: admission stops, in-flight jobs
// finish, then the process exits.
//
//	resilienced -addr 127.0.0.1:8912 -workers 4 -queue 8
//	curl -s localhost:8912/solve -d '{"scenario":"-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -tol 1e-10 -seed 7 -faults SWO@5:r1,SNF@6:r0"}'
package main

import (
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof" // registers the profiler on the default mux, which -pprof-addr serves
	"os"
	"path/filepath"
	"time"

	"resilience/internal/obs"
	"resilience/internal/service"
)

// options carries every run parameter; tests fill it directly.
type options struct {
	addr       string
	workers    int
	queueCap   int
	cacheCap   int
	jobTimeout time.Duration
	retryAfter time.Duration
	drainGrace time.Duration
	pprofAddr  string
	flightDir  string
	traceDir   string
	stop       <-chan struct{} // test hook: a close drains like a signal
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8912", "listen address (port 0 picks a free port)")
	flag.IntVar(&o.workers, "workers", 0, "solver pool size (0: GOMAXPROCS)")
	flag.IntVar(&o.queueCap, "queue", 0, "pending-job queue capacity (0: 2x workers)")
	flag.IntVar(&o.cacheCap, "cache", 0, "result-cache capacity in entries (0: 4096, negative: disabled)")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 120*time.Second, "per-job wall-clock cap")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on 429 responses")
	flag.DurationVar(&o.drainGrace, "drain-grace", 30*time.Second, "max time to drain in-flight jobs on shutdown")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	flag.StringVar(&o.flightDir, "flight-dir", "", "dump flight-recorder rings into this directory on job failure/5xx (empty: disabled)")
	flag.StringVar(&o.traceDir, "trace-dir", "", "write the merged wall-clock + virtual-time Chrome trace here on shutdown (empty: disabled)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run serves until a signal (or a close of o.stop, for tests) and drains.
func run(o options) error {
	if o.flightDir != "" {
		obs.DefaultFlight().SetDump(o.flightDir, "resilienced")
	}
	svc := service.New(service.Config{
		Workers:    o.workers,
		QueueCap:   o.queueCap,
		CacheCap:   o.cacheCap,
		JobTimeout: o.jobTimeout,
		RetryAfter: o.retryAfter,
	})
	if err := service.Serve("resilienced", svc, svc.Shutdown, o.addr, o.pprofAddr, o.drainGrace, o.stop); err != nil {
		return err
	}
	if o.traceDir != "" {
		if err := dumpTrace(svc, o.traceDir); err != nil {
			log.Printf("trace dump failed: %v", err)
		}
	}
	log.Printf("drained clean, exiting")
	return nil
}

// dumpTrace writes the merged Chrome trace of this run — the retained
// wall-clock request spans alongside the last scenario's virtual-time
// rank tracks — for loading into Perfetto.
func dumpTrace(svc *service.Server, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-resilienced-%d.json", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := svc.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("merged trace written to %s", path)
	return nil
}
