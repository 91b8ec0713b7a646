// Command resilience-router fronts a fleet of resilienced replicas with
// a consistent-hash router.
//
// Canonical job keys map stably onto replicas, so each replica's result
// cache concentrates on its own key range and the fleet-wide hit rate
// approaches a single cache N times the size. Replica answers, 429s
// included, pass through byte-identical; the router adds its own bounded
// in-flight admission on top and puts its own -retry-after hint on every
// 429 and 503 it answers. A replica's 200 to a cacheable job is kept in
// the router's own bounded front tier, which answers repeats of that key
// without a forward. A /batch's other items are split by ring owner and
// forwarded as one sub-batch per replica, and a /solve miss as a batch of
// one. Replica death or drain
// re-shards the ring — only the dead replica's key range moves. /healthz reports
// fleet liveness, /metrics aggregates per-replica queue depth and cache
// hit rates, and POST /replicas changes membership at runtime.
// SIGINT/SIGTERM drains in-flight forwards, then exits.
//
//	resilience-router -addr 127.0.0.1:8910 \
//	  -replicas http://127.0.0.1:8912,http://127.0.0.1:8913
package main

import (
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof" // registers the profiler on the default mux, which -pprof-addr serves
	"os"
	"strings"
	"time"

	"resilience/internal/obs"
	"resilience/internal/service"
	"resilience/internal/service/router"
)

// options carries every run parameter; tests fill it directly.
type options struct {
	addr        string
	replicas    string // comma-separated base URLs
	vnodes      int
	maxInflight int
	retryAfter  time.Duration
	healthEvery time.Duration
	drainGrace  time.Duration
	pprofAddr   string
	flightDir   string
	stop        <-chan struct{} // test hook: a close drains like a signal
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8910", "listen address (port 0 picks a free port)")
	flag.StringVar(&o.replicas, "replicas", "", "comma-separated replica base URLs (required)")
	flag.IntVar(&o.vnodes, "vnodes", 0, "virtual nodes per replica on the hash ring (0: 64)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "max concurrently forwarded requests (0: 256)")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on every 429/503 the router answers")
	flag.DurationVar(&o.healthEvery, "health-every", 2*time.Second, "replica health-probe interval (negative: disabled)")
	flag.DurationVar(&o.drainGrace, "drain-grace", 30*time.Second, "max time to drain in-flight forwards on shutdown")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	flag.StringVar(&o.flightDir, "flight-dir", "", "dump flight-recorder rings into this directory on routing failures (empty: disabled)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run routes until a signal (or a close of o.stop, for tests) and drains.
func run(o options) error {
	if o.flightDir != "" {
		obs.DefaultFlight().SetDump(o.flightDir, "resilience-router")
	}
	var urls []string
	for _, u := range strings.Split(o.replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	rt, err := router.New(router.Config{
		Replicas:    urls,
		VNodes:      o.vnodes,
		MaxInflight: o.maxInflight,
		RetryAfter:  o.retryAfter,
		HealthEvery: o.healthEvery,
	})
	if err != nil {
		return fmt.Errorf("resilience-router: %w", err)
	}
	if err := service.Serve("resilience-router", rt, rt.Shutdown, o.addr, o.pprofAddr, o.drainGrace, o.stop); err != nil {
		return err
	}
	log.Printf("drained clean, exiting")
	return nil
}
