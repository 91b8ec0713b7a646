package service

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve is the one listen → serve → signal → drain loop of the fabric's
// daemons (resilienced, resilience-router). It serves h on addr, and the
// default mux — where a main's net/http/pprof import registers the
// profiler — on pprofAddr unless that is empty, and announces
// "<name> listening on http://ADDR". It returns once SIGINT, SIGTERM or a
// close of stop (a test hook) has drained the daemon: shutdown drains h's
// own work, then the http.Server shuts down, both within grace. When
// either listener cannot be opened, shutdown runs unbounded (nothing was
// admitted) before the error returns. The profiler's listener closes
// when Serve returns.
func Serve(name string, h http.Handler, shutdown func(context.Context) error, addr, pprofAddr string, grace time.Duration, stop <-chan struct{}) error {
	listenFailed := func(err error) error {
		// Nothing was admitted, so the drain cannot wait or fail; the
		// listen error is the one to report.
		_ = shutdown(context.Background())
		return fmt.Errorf("%s: %w", name, err)
	}
	if pprofAddr != "" {
		ps, err := servePprof(pprofAddr)
		if err != nil {
			return listenFailed(fmt.Errorf("pprof: %w", err))
		}
		defer ps.Close()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return listenFailed(err)
	}
	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("%s listening on http://%s", name, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		log.Printf("caught %v, draining", s)
	case <-stop:
		log.Printf("stop requested, draining")
	case err := <-serveErr:
		return fmt.Errorf("%s: serve: %w", name, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		return fmt.Errorf("%s: drain: %w", name, err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("%s: http shutdown: %w", name, err)
	}
	return nil
}

// servePprof serves the default mux on its own listener, kept off the
// service port so profiling is never reachable from service clients.
func servePprof(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	log.Printf("pprof listening on http://%s/debug/pprof/", ln.Addr())
	ps := &http.Server{} // a nil Handler serves the default mux
	go ps.Serve(ln)
	return ps, nil
}
