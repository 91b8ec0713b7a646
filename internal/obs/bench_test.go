package obs

import "testing"

// BenchmarkHistogramRecord gates the serving hot path: recording a
// sample must be 0 allocs/op (enforced by scripts/check.sh).
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(float64(i&1023) * 1e-4)
	}
	if h.Snapshot().Count != uint64(b.N) {
		b.Fatal("lost samples")
	}
}

// BenchmarkSpanStartEnd gates the tracing hot path: opening and
// recording a span must be 0 allocs/op (enforced by scripts/check.sh).
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("solve", "r-bench-000001")
		sp.End()
	}
}

// BenchmarkCounterInc keeps the cheapest metric cheap.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry("bench")
	c := r.Counter("ops_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramVecWith measures the labeled hot-path accessor
// (read-locked map hit) plus a record.
func BenchmarkHistogramVecWith(b *testing.B) {
	r := NewRegistry("bench")
	v := r.HistogramVec("solve_wall_seconds", "scheme")
	v.With("CR-M") // pre-create so the loop measures the hit path
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("CR-M").Record(0.003)
	}
}

// BenchmarkFlightNote measures the always-on ring write.
func BenchmarkFlightNote(b *testing.B) {
	f := NewFlightRecorder(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Note("job-done", "r-bench-000001", "ok")
	}
}
