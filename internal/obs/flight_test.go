package obs

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	f.Note("a", "", "first")
	f.Note("b", "r1", "second")
	f.Notef("c", "", "n=%d", 3)
	f.Note("d", "", "fourth")
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("Events() = %d, want ring size 3", len(evs))
	}
	if evs[0].Kind != "b" || evs[0].ReqID != "r1" || evs[2].Msg != "fourth" {
		t.Fatalf("ring contents wrong: %+v", evs)
	}
}

// TestCrashDumpNamesRequestID: a crash dump lands on disk and contains
// the failing request's ID — the acceptance criterion for the flight
// recorder.
func TestCrashDumpNamesRequestID(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(16)

	// Without a dump dir, Crash records but does not write.
	if p := f.Crash("job-failed", "r-abc-1", "timeout"); p != "" {
		t.Fatalf("Crash without dump dir returned path %q", p)
	}

	f.SetDump(dir, "testproc")
	path := f.Crash("job-failed", "r-abc-2", "solver blew up")
	if path == "" {
		t.Fatal("Crash with dump dir returned no path")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Proc   string        `json:"proc"`
		Reason string        `json:"reason"`
		Events []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if doc.Proc != "testproc" || !strings.Contains(doc.Reason, "job-failed") {
		t.Fatalf("dump header wrong: %+v", doc)
	}
	if !strings.Contains(string(data), "r-abc-2") {
		t.Fatal("dump does not name the failing request ID")
	}
	if len(doc.Events) < 2 {
		t.Fatalf("dump retains %d events, want the full ring history", len(doc.Events))
	}

	// Throttle: an immediate second crash records but skips the dump.
	if p := f.Crash("job-failed", "r-abc-3", "again"); p != "" {
		t.Fatalf("throttled Crash returned path %q", p)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != 1 {
		t.Fatalf("dump dir holds %d files, want 1 (throttled)", len(files))
	}

	// Dump is unthrottled.
	if _, err := f.Dump("manual"); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	files, _ = filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != 2 {
		t.Fatalf("dump dir holds %d files after manual Dump, want 2", len(files))
	}
}

func TestFlightServeHTTP(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(8)
	f.SetDump(dir, "svc")
	f.Note("boot", "", "up")

	rr := httptest.NewRecorder()
	f.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	var resp struct {
		Events   []FlightEvent `json:"events"`
		DumpPath string        `json:"dump_path"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if len(resp.Events) != 1 || resp.Events[0].Kind != "boot" {
		t.Fatalf("events = %+v", resp.Events)
	}
	if resp.DumpPath != "" {
		t.Fatal("plain GET should not dump")
	}

	rr = httptest.NewRecorder()
	f.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrecorder?dump=1", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DumpPath == "" {
		t.Fatal("?dump=1 did not report a dump path")
	}
	if _, err := os.Stat(resp.DumpPath); err != nil {
		t.Fatalf("reported dump path missing: %v", err)
	}

	rr = httptest.NewRecorder()
	f.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/flightrecorder", nil))
	if rr.Code != 405 {
		t.Fatalf("POST = %d, want 405", rr.Code)
	}
}
