package obs

import (
	"strings"
	"testing"
	"time"
)

// spansOf returns the retained spans of one request, oldest first.
func spansOf(tr *Tracer, reqID string) []WallSpan {
	var out []WallSpan
	for _, s := range tr.Spans() {
		if s.ReqID == reqID {
			out = append(out, s)
		}
	}
	return out
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	base := time.Now()
	tr.Record("queue", "r1", base, 10*time.Millisecond)
	tr.Record("solve", "r1", base.Add(10*time.Millisecond), 20*time.Millisecond)
	tr.Record("solve", "r2", base, 5*time.Millisecond)

	all := tr.Spans()
	if len(all) != 3 {
		t.Fatalf("Spans() = %d spans, want 3", len(all))
	}
	if all[0].Name != "queue" || all[2].ReqID != "r2" {
		t.Fatalf("spans out of order: %+v", all)
	}
	r1 := spansOf(tr, "r1")
	if len(r1) != 2 || r1[0].Name != "queue" || r1[1].Name != "solve" {
		t.Fatalf("spans of r1 = %+v", r1)
	}

	// Overflow: the ring keeps only the most recent len(ring) spans.
	for i := 0; i < 10; i++ {
		tr.Record("enc", "r3", base, time.Millisecond)
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("after overflow Spans() = %d, want ring size 4", got)
	}
	if len(spansOf(tr, "r1")) != 0 {
		t.Fatal("evicted request's spans still returned")
	}
}

func TestActiveSpanRecords(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start("solve", "req-9")
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("End() duration = %v", d)
	}
	spans := spansOf(tr, "req-9")
	if len(spans) != 1 || spans[0].Name != "solve" || spans[0].Dur != int64(d) {
		t.Fatalf("recorded span = %+v, want dur %v", spans, d)
	}
	// A zero ActiveSpan (no tracer) must be safe to End.
	var z ActiveSpan
	z.End()
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if !strings.HasPrefix(id, "r-") {
			t.Fatalf("request ID %q lacks r- prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}
