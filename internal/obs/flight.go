package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightEvent is one structured entry in the crash flight recorder:
// what happened, when (wall clock), and on whose behalf (the request
// ID, when one is in scope).
type FlightEvent struct {
	TimeUnixNano int64  `json:"t"`
	Kind         string `json:"kind"`
	ReqID        string `json:"req_id,omitempty"`
	Msg          string `json:"msg"`
}

// FlightRecorder keeps a fixed-size ring of recent events per process
// and dumps it to disk when something goes wrong — a job failure or
// 5xx, a cluster stall-protocol abort, a chaos invariant violation —
// or on demand via the /debug/flightrecorder endpoint. Recording is
// always on (a mutex-guarded ring write); disk dumping only happens
// once a dump directory is configured, so library tests never write
// files.
type FlightRecorder struct {
	ring ring[FlightEvent]

	mu       sync.Mutex // guards the dump state below
	dir      string
	proc     string
	seq      int
	lastDump time.Time
	throttle time.Duration
}

// NewFlightRecorder returns a recorder retaining the last size events.
func NewFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: newRing[FlightEvent](size), throttle: time.Second}
}

// defaultFlight is the per-process recorder: the cluster stall
// protocol, the chaos invariant battery, and (by default) the service
// all record into it, so one dump shows the whole process's recent
// history in one timeline.
var defaultFlight = NewFlightRecorder(1024)

// DefaultFlight returns the process-wide flight recorder.
func DefaultFlight() *FlightRecorder { return defaultFlight }

// SetDump enables automatic disk dumps into dir, tagging dump files
// with the process name proc (e.g. "resilienced"). The directory is
// created on first dump.
func (f *FlightRecorder) SetDump(dir, proc string) {
	f.mu.Lock()
	f.dir = dir
	f.proc = proc
	f.mu.Unlock()
}

// Note records one event.
func (f *FlightRecorder) Note(kind, reqID, msg string) {
	f.ring.put(FlightEvent{TimeUnixNano: time.Now().UnixNano(), Kind: kind, ReqID: reqID, Msg: msg})
}

// Notef records one event with a formatted message.
func (f *FlightRecorder) Notef(kind, reqID, format string, args ...any) {
	f.Note(kind, reqID, fmt.Sprintf(format, args...))
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []FlightEvent { return f.ring.values() }

// flightDump is the on-disk dump document.
type flightDump struct {
	Proc   string        `json:"proc"`
	Reason string        `json:"reason"`
	Dumped string        `json:"dumped_at"`
	Events []FlightEvent `json:"events"`
}

// Crash records the failure event and dumps the ring to disk, throttled
// to at most one dump per throttle interval so a failure storm can't
// flood the disk. Returns the dump path ("" when dumping is disabled
// or throttled).
func (f *FlightRecorder) Crash(kind, reqID, msg string) string {
	f.Note(kind, reqID, msg)
	f.mu.Lock()
	if f.dir == "" || time.Since(f.lastDump) < f.throttle && !f.lastDump.IsZero() {
		f.mu.Unlock()
		return ""
	}
	f.lastDump = time.Now()
	path, err := f.dumpLocked(kind + ": " + msg)
	f.mu.Unlock()
	if err != nil {
		return ""
	}
	return path
}

// Dump writes the current ring to disk unconditionally (no throttle).
func (f *FlightRecorder) Dump(reason string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dir == "" {
		// The dump_err of /debug/flightrecorder?dump=1: the text is part of
		// the endpoint's body, so it keeps its established prefix.
		return "", fmt.Errorf("telemetry: flight recorder has no dump directory")
	}
	return f.dumpLocked(reason)
}

func (f *FlightRecorder) dumpLocked(reason string) (string, error) {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	f.seq++
	proc := f.proc
	if proc == "" {
		proc = "proc"
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%s-%d-%03d.json", proc, os.Getpid(), f.seq))
	doc := flightDump{
		Proc:   proc,
		Reason: reason,
		Dumped: time.Now().UTC().Format(time.RFC3339Nano),
		Events: f.Events(),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ServeHTTP serves the ring as JSON on GET; ?dump=1 additionally
// writes a disk dump (when configured) and reports its path.
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	resp := struct {
		Events   []FlightEvent `json:"events"`
		DumpPath string        `json:"dump_path,omitempty"`
		DumpErr  string        `json:"dump_err,omitempty"`
	}{Events: f.Events()}
	if r.URL.Query().Get("dump") != "" {
		path, err := f.Dump("on-demand: /debug/flightrecorder?dump=1")
		if err != nil {
			resp.DumpErr = err.Error()
		} else {
			resp.DumpPath = path
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
