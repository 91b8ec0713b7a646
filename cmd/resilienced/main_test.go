package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// bootDaemon runs the daemon with the given options on an ephemeral
// port, waits for its announced address, and returns it plus the log
// buffer and stop/done plumbing.
func bootDaemon(t *testing.T, o options) (addr string, buf *bytes.Buffer, stop chan struct{}, done chan error) {
	t.Helper()
	buf = &bytes.Buffer{}
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(log.Writer()) })

	stop = make(chan struct{})
	done = make(chan error, 1)
	o.addr = "127.0.0.1:0"
	o.stop = stop
	go func() { done <- run(o) }()

	re := regexp.MustCompile(`resilienced listening on http://([^\s]+)`)
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return addr, buf, stop, done
}

// TestRunServesAndDrains boots the daemon on an ephemeral port, solves
// one scenario through it (twice — the repeat must be a cache hit), and
// stops it via the test hook.
func TestRunServesAndDrains(t *testing.T) {
	addr, buf, stop, done := bootDaemon(t, options{
		workers: 2, queueCap: 4,
		jobTimeout: time.Minute, retryAfter: time.Second, drainGrace: 10 * time.Second,
	})

	body := `{"scenario":"-grid 6 -ranks 2 -scheme LI -tol 1e-10 -seed 5 -faults SNF@4:r1"}`
	var first []byte
	for i, wantCache := range []string{"miss", "hit"} {
		resp, err := http.Post("http://"+addr+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d answered %d: %s", i, resp.StatusCode, got)
		}
		if xc := resp.Header.Get("X-Cache"); xc != wantCache {
			t.Fatalf("solve %d X-Cache %q, want %q", i, xc, wantCache)
		}
		if i == 0 {
			first = got
			var res map[string]any
			if err := json.Unmarshal(got, &res); err != nil {
				t.Fatal(err)
			}
			if res["kind"] != "scenario" || res["converged"] != true {
				t.Fatalf("unexpected result: %s", got)
			}
		} else if !bytes.Equal(got, first) {
			t.Fatalf("cache hit bytes differ:\n got %s\nwant %s", got, first)
		}
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after stop")
	}
	if !strings.Contains(buf.String(), "drained clean") {
		t.Fatalf("no clean-drain log line:\n%s", buf.String())
	}
}

// TestRunPprofFlag: -pprof-addr exposes /debug/pprof/ on its own
// listener, and leaving it empty exposes nothing.
func TestRunPprofFlag(t *testing.T) {
	addr, buf, stop, done := bootDaemon(t, options{
		workers: 1, queueCap: 1, pprofAddr: "127.0.0.1:0",
		jobTimeout: time.Minute, retryAfter: time.Second, drainGrace: 10 * time.Second,
	})

	re := regexp.MustCompile(`pprof listening on http://([^\s/]+)`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("pprof address never announced:\n%s", buf.String())
	}
	resp, err := http.Get("http://" + m[1] + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint answered %d", resp.StatusCode)
	}

	// The service port must NOT serve pprof.
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof leaked onto the service listener")
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The profiler's listener closes with the daemon's.
	if resp, err := http.Get("http://" + m[1] + "/debug/pprof/cmdline"); err == nil {
		resp.Body.Close()
		t.Fatalf("pprof still answers %d after the daemon returned", resp.StatusCode)
	}
}

func TestRunRejectsBadAddr(t *testing.T) {
	if err := run(options{addr: "256.0.0.1:-1", workers: 1, queueCap: 1}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if err := run(options{addr: "127.0.0.1:0", pprofAddr: "256.0.0.1:-1", workers: 1, queueCap: 1}); err == nil {
		t.Fatal("bad pprof address accepted")
	}
}
