package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"resilience/internal/power"
)

// goldenRecorder builds a tiny two-rank recorder and a segment-retaining
// meter with a coverage gap on core 0, exercising every exporter branch:
// M metadata, X spans, the aggregate counter delta-walk, and the per-core
// zero samples at gaps and at the end.
func goldenRecorder() (*Recorder, *power.Meter) {
	rec := NewRecorder()
	r0 := rec.Rank(0)
	r0.Span(SpanCompute, 0, 1e-6)
	r0.Span(SpanSend, 1e-6, 5e-7)
	rec.Rank(1).Span(SpanRecv, 0, 1.5e-6)

	m := power.NewMeter(true)
	m.Reserve(2)
	c0, c1 := m.Core(0), m.Core(1)
	c0.Record(0, 1e-6, 90)
	c0.Record(2e-6, 1e-6, 90)
	c1.Record(0, 3e-6, 50)
	return rec, m
}

// TestWriteChromeTraceGolden pins the exact exported bytes: field order,
// float rendering, event ordering, and counter derivation are all part of
// the format contract (Perfetto-loadable and diff-stable).
func TestWriteChromeTraceGolden(t *testing.T) {
	rec, m := goldenRecorder()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, rec, m); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"ranks"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"power"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank 0"}},` +
		`{"name":"compute","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"cat":"compute"},` +
		`{"name":"send","ph":"X","ts":1,"dur":0.5,"pid":0,"tid":0,"cat":"comm"},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"rank 1"}},` +
		`{"name":"recv","ph":"X","ts":0,"dur":1.5,"pid":0,"tid":1,"cat":"comm"},` +
		`{"name":"cluster W","ph":"C","ts":0,"pid":1,"tid":0,"args":{"W":140}},` +
		`{"name":"cluster W","ph":"C","ts":1,"pid":1,"tid":0,"args":{"W":50}},` +
		`{"name":"cluster W","ph":"C","ts":2,"pid":1,"tid":0,"args":{"W":140}},` +
		`{"name":"cluster W","ph":"C","ts":3,"pid":1,"tid":0,"args":{"W":0}},` +
		`{"name":"core 0 W","ph":"C","ts":0,"pid":1,"tid":1,"args":{"W":90}},` +
		`{"name":"core 0 W","ph":"C","ts":1,"pid":1,"tid":1,"args":{"W":0}},` +
		`{"name":"core 0 W","ph":"C","ts":2,"pid":1,"tid":1,"args":{"W":90}},` +
		`{"name":"core 0 W","ph":"C","ts":3,"pid":1,"tid":1,"args":{"W":0}},` +
		`{"name":"core 1 W","ph":"C","ts":0,"pid":1,"tid":2,"args":{"W":50}},` +
		`{"name":"core 1 W","ph":"C","ts":3,"pid":1,"tid":2,"args":{"W":0}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\ngot:  %s\nwant: %s", got, want)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("golden trace fails validation: %v", err)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	rec, m := goldenRecorder()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, nil, rec, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, nil, rec, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same recorder differ")
	}
}

func TestWriteChromeTraceNilParts(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("metadata-only trace invalid: %v", err)
	}
	// A meter without segment retention contributes no counter tracks.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil, NewRecorder(), power.NewMeter(false)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"ph":"C"`) {
		t.Error("segment-less meter produced counter events")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":`,
		"no events":     `{"traceEvents":[],"displayTimeUnit":"ms"}`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		"negative ts":   `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]}`,
		"negative dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`,
		"unnamed X":     `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`,
		"ts regression": `{"traceEvents":[` +
			`{"name":"a","ph":"X","ts":5,"dur":1,"pid":0,"tid":0},` +
			`{"name":"b","ph":"X","ts":1,"dur":1,"pid":0,"tid":0}]}`,
		"straddling spans": `{"traceEvents":[` +
			`{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":0},` +
			`{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":0}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	// Tracks are independent: interleaved timestamps across tids are fine.
	ok := `{"traceEvents":[` +
		`{"name":"a","ph":"X","ts":5,"dur":1,"pid":0,"tid":0},` +
		`{"name":"b","ph":"X","ts":1,"dur":1,"pid":0,"tid":1}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("cross-track ordering rejected: %v", err)
	}
}

// TestExportLeavesSpanLogInRecordingOrder: RankSpans hands out the
// recorder's own log, so the exporter must order its events without
// reordering the spans — a composite recorded after the primitive it wraps
// is exported before it and still found after it.
func TestExportLeavesSpanLogInRecordingOrder(t *testing.T) {
	rec := NewRecorder()
	r := rec.Rank(0)
	r.Span(SpanSend, 1e-6, 1e-6)
	r.Span(SpanRecv, 2e-6, 1e-6)
	r.Span(SpanHalo, 1e-6, 2e-6)
	r.Span(SpanCompute, 0, 1e-6)
	want := append([]Span(nil), rec.RankSpans(0)...)

	evs := rankEvents(0, rec.RankSpans(0))
	var names []string
	for _, ev := range evs {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	if got := strings.Join(names, ","); got != "compute,halo,send,recv" {
		t.Errorf("exported order %s, want compute,halo,send,recv", got)
	}
	for i, s := range rec.RankSpans(0) {
		if s != want[i] {
			t.Fatalf("export reordered the recorder's span log: position %d is %v, recorded %v", i, s, want[i])
		}
	}
}

// spansFixture builds two requests' worth of nested wall-clock spans:
// each request's "request" span encloses queue and solve phases, and
// the two requests overlap in time (they must land on separate tracks
// for the trace to nest).
func spansFixture() []WallSpan {
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC).UnixNano()
	ms := int64(time.Millisecond)
	return []WallSpan{
		{ReqID: "r-1", Name: "request", Start: base, Dur: 50 * ms},
		{ReqID: "r-1", Name: "queue", Start: base + 1*ms, Dur: 9 * ms},
		{ReqID: "r-1", Name: "solve", Start: base + 10*ms, Dur: 35 * ms},
		{ReqID: "r-2", Name: "request", Start: base + 5*ms, Dur: 30 * ms},
		{ReqID: "r-2", Name: "solve", Start: base + 6*ms, Dur: 25 * ms},
	}
}

func TestMergedTraceEventsStructure(t *testing.T) {
	events := wallEvents(spansFixture())
	var xCount int
	tids := make(map[string]int)
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" {
			continue
		}
		if e.Ph != "X" {
			continue
		}
		xCount++
		if e.Pid != pidService {
			t.Fatalf("X event on pid %d, want %d", e.Pid, pidService)
		}
		arg, ok := e.Args.(reqArg)
		if !ok {
			t.Fatalf("X event args = %#v, want reqArg", e.Args)
		}
		if prev, seen := tids[arg.ReqID]; seen && prev != e.Tid {
			t.Fatalf("request %s spans on two tids (%d, %d)", arg.ReqID, prev, e.Tid)
		}
		tids[arg.ReqID] = e.Tid
	}
	if xCount != 5 {
		t.Fatalf("got %d X events, want 5", xCount)
	}
	if len(tids) != 2 || tids["r-1"] == tids["r-2"] {
		t.Fatalf("requests share a track: %v", tids)
	}
	// Re-based: earliest span starts at ts 0.
	if events[0].Name != "process_name" {
		t.Fatalf("first event %+v, want process_name metadata", events[0])
	}
}

// TestMergedTraceValidates: the merged document — wall-clock service
// tracks plus virtual-time rank tracks — passes the structural
// validator, the acceptance criterion for Perfetto loadability.
func TestMergedTraceValidates(t *testing.T) {
	rec := NewRecorder()
	rec.Rank(0).Span(SpanCompute, 0, 1.5)
	rec.Rank(1).Span(SpanSend, 0.5, 0.25)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spansFixture(), rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged trace fails validation: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"service wall-clock"`, `"ranks"`, `"req r-1"`, `"req_id":"r-2"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged trace missing %q", want)
		}
	}
}

func TestMergedTraceEmptySpans(t *testing.T) {
	if evs := wallEvents(nil); evs != nil {
		t.Fatalf("wallEvents(nil) = %v, want nil", evs)
	}
	// Spans-only merged trace (no recorder/meter) must still validate.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spansFixture(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("spans-only merged trace fails validation: %v", err)
	}
}
