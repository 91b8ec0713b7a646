package obs

import (
	"strings"
	"testing"
)

func TestSpanKindStrings(t *testing.T) {
	want := map[SpanKind]string{
		SpanCompute:     "compute",
		SpanSend:        "send",
		SpanRecv:        "recv",
		SpanWait:        "wait",
		SpanCollective:  "collective",
		SpanHalo:        "halo",
		SpanReconstruct: "reconstruct",
		SpanCheckpoint:  "checkpoint",
		SpanRollback:    "rollback",
	}
	if len(want) != int(numSpanKinds) {
		t.Fatalf("test covers %d kinds, package has %d", len(want), numSpanKinds)
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d: got %q, want %q", k, k.String(), s)
		}
	}
	if s := SpanKind(200).String(); !strings.Contains(s, "200") {
		t.Errorf("unknown kind renders %q", s)
	}
}

func TestRankSpanAccounting(t *testing.T) {
	rec := NewRecorder()
	r := rec.Rank(1)
	r.Span(SpanCompute, 0, 2)
	r.Span(SpanSend, 2, 1)
	r.Span(SpanRecv, 3, 0.5)
	r.Span(SpanWait, 3.5, 0.5)
	r.Span(SpanCollective, 4, 1)
	// Composite kinds must not double-count into the seconds counters.
	r.Span(SpanHalo, 2, 2)
	r.Span(SpanReconstruct, 0, 5)
	// Zero/negative durations are dropped entirely.
	r.Span(SpanCompute, 9, 0)
	r.Span(SpanCompute, 9, -1)

	ms := rec.Metrics()
	if len(ms) != 2 {
		t.Fatalf("got %d rank surfaces, want 2 (grow-on-demand)", len(ms))
	}
	m := ms[1]
	if m.Rank != 1 {
		t.Errorf("rank id %d", m.Rank)
	}
	if m.ComputeSec != 2 || m.SendSec != 1 || m.WaitSec != 1 || m.CollectiveSec != 1 {
		t.Errorf("seconds attribution: %+v", m)
	}
	if got := len(rec.RankSpans(1)); got != 7 {
		t.Errorf("recorded %d spans, want 7", got)
	}
	if rec.SpanCount() != 7 {
		t.Errorf("SpanCount %d", rec.SpanCount())
	}
	if s := rec.RankSpans(0); len(s) != 0 {
		t.Errorf("rank 0 has %d spans", len(s))
	}
	if s := rec.RankSpans(5); s != nil {
		t.Errorf("out-of-range rank returned %v", s)
	}
}

func TestRankCounters(t *testing.T) {
	rec := NewRecorder()
	r := rec.Rank(0)
	r.AddSend(64)
	r.AddSend(8)
	r.AddRecv(128)
	r.AddCollective()
	r.AddCollective()
	r.AddFlops(1000)
	r.IncRestarts()
	m := rec.Metrics()[0]
	if m.MsgsSent != 2 || m.BytesSent != 72 {
		t.Errorf("send counters: %+v", m)
	}
	if m.MsgsRecv != 1 || m.BytesRecv != 128 {
		t.Errorf("recv counters: %+v", m)
	}
	if m.Collectives != 2 || m.Flops != 1000 || m.Restarts != 1 {
		t.Errorf("counters: %+v", m)
	}
}

func TestRecorderReset(t *testing.T) {
	rec := NewRecorder()
	rec.Rank(3).Span(SpanCompute, 0, 1)
	rec.Reset()
	if rec.Ranks() != 0 || rec.SpanCount() != 0 {
		t.Errorf("reset left %d ranks, %d spans", rec.Ranks(), rec.SpanCount())
	}
}

// TestRecorderReuseReportsOnlyCurrentRun: Reset keeps the rank surfaces
// and the capacity of their logs for the next run, and that must be
// invisible — after a six-rank run, a two-rank run on the same recorder
// reports two ranks, its own counters, its own spans and its own events,
// nothing of the run before.
func TestRecorderReuseReportsOnlyCurrentRun(t *testing.T) {
	rec := NewRecorder()
	for r := 0; r < 6; r++ {
		surf := rec.Rank(r)
		for i := 0; i < 100; i++ {
			surf.Span(SpanCompute, float64(i), 0.5)
		}
		surf.AddSend(64)
		surf.AddCollective()
		surf.IncRestarts()
	}
	for i := 0; i < 50; i++ {
		rec.Rank(0).Event(Event{Kind: Iteration, Iter: i})
	}
	kept := rec.Rank(1)
	rec.Reset()
	if rec.Ranks() != 0 || rec.SpanCount() != 0 || len(rec.Metrics()) != 0 || rec.RankSpans(0) != nil || rec.Events() != nil {
		t.Fatalf("reset recorder still reports %d ranks, %d spans, %d metrics rows, %d events",
			rec.Ranks(), rec.SpanCount(), len(rec.Metrics()), len(rec.Events()))
	}

	rec.Rank(0).Span(SpanSend, 0, 2)
	rec.Rank(0).Event(Event{Kind: Iteration, Iter: 0, RelRes: 1})
	rec.Rank(0).Event(Event{Kind: ConvergedEvent, Iter: 1, Converged: true})
	if ev := rec.Events(); len(ev) != 2 || ev[0].RelRes != 1 || ev[1].Kind != ConvergedEvent {
		t.Errorf("events after Reset %v, want only the current run's two", ev)
	}
	if c := cap(rec.Events()); c < 50 {
		t.Errorf("event log has capacity %d after Reset, want the 50 it had grown to", c)
	}
	surf := rec.Rank(1)
	surf.Span(SpanCompute, 0, 1)
	surf.Span(SpanHalo, 1, 1)
	if surf != kept {
		t.Error("Reset dropped rank 1's surface instead of keeping it for reuse")
	}
	if c := cap(rec.RankSpans(1)); c < 100 {
		t.Errorf("rank 1's span log has capacity %d after Reset, want the 100 it had grown to", c)
	}
	if rec.Ranks() != 2 {
		t.Errorf("Ranks() = %d after a two-rank run, want 2", rec.Ranks())
	}
	if rec.SpanCount() != 3 {
		t.Errorf("SpanCount() = %d, want 3", rec.SpanCount())
	}
	ms := rec.Metrics()
	if len(ms) != 2 {
		t.Fatalf("Metrics() has %d rows, want 2", len(ms))
	}
	if want := (Metrics{Rank: 0, SendSec: 2}); ms[0] != want {
		t.Errorf("rank 0 metrics %+v, want %+v", ms[0], want)
	}
	if want := (Metrics{Rank: 1, ComputeSec: 1}); ms[1] != want {
		t.Errorf("rank 1 metrics %+v, want %+v", ms[1], want)
	}
	if got := rec.RankSpans(1); len(got) != 2 || got[0] != (Span{SpanCompute, 0, 1}) || got[1] != (Span{SpanHalo, 1, 1}) {
		t.Errorf("rank 1 spans %v", got)
	}
	if s := rec.RankSpans(2); s != nil {
		t.Errorf("rank 2 of the previous run is still visible: %d spans", len(s))
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	rec := NewRecorder()
	r := rec.Rank(0)
	r.AddSend(16)
	r.Span(SpanCompute, 0, 0.25)
	var sb strings.Builder
	if err := WriteMetricsCSV(&sb, rec.Metrics()); err != nil {
		t.Fatal(err)
	}
	want := "rank,msgs_sent,bytes_sent,msgs_recv,bytes_recv,collectives,flops,restarts,compute_s,send_s,wait_s,collective_s\n" +
		"0,1,16,0,0,0,0,0,0.25,0,0,0\n"
	if sb.String() != want {
		t.Errorf("metrics CSV:\n%q\nwant:\n%q", sb.String(), want)
	}
}
