package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBucketBoundsContainment: every sample lands in the bucket whose
// [lower, upper) range contains it, across the full dynamic range.
func TestBucketBoundsContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		// Log-uniform over the covered range plus a margin beyond it.
		exp := rng.Float64()*70 - 33 // 2^-33 .. 2^37
		v := math.Exp2(exp) * (1 + rng.Float64())
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%g) = %d out of range", v, i)
		}
		lo, hi := BucketLower(i), BucketUpper(i)
		if i == 0 {
			if v >= hi {
				t.Fatalf("v=%g in underflow bucket but >= upper %g", v, hi)
			}
			continue
		}
		if i == NumBuckets-1 {
			if v < lo {
				t.Fatalf("v=%g in overflow bucket but < lower %g", v, lo)
			}
			continue
		}
		if v < lo || v >= hi {
			t.Fatalf("v=%g in bucket %d but outside [%g, %g)", v, i, lo, hi)
		}
	}
	// Degenerate inputs all land in the underflow bucket.
	for _, v := range []float64{0, -1, math.Inf(-1), math.NaN()} {
		if i := bucketIndex(v); i != 0 {
			t.Fatalf("bucketIndex(%g) = %d, want 0", v, i)
		}
	}
	if i := bucketIndex(math.Inf(1)); i != NumBuckets-1 {
		t.Fatalf("bucketIndex(+Inf) = %d, want %d", i, NumBuckets-1)
	}
}

// TestBucketBoundsContiguous: bucket bounds tile the positive axis with
// no gaps — bucket i's upper bound is bucket i+1's lower bound.
func TestBucketBoundsContiguous(t *testing.T) {
	for i := 0; i < NumBuckets-1; i++ {
		if BucketUpper(i) != BucketLower(i+1) {
			t.Fatalf("gap between bucket %d (upper %g) and %d (lower %g)",
				i, BucketUpper(i), i+1, BucketLower(i+1))
		}
	}
	if !math.IsInf(BucketUpper(NumBuckets-1), 1) {
		t.Fatalf("overflow bucket upper = %g, want +Inf", BucketUpper(NumBuckets-1))
	}
}

// TestMergeIsExactBucketwiseSum: satellite 3's core property — merging
// two snapshots adds counts bucket-wise, so the merged distribution is
// exactly what one histogram recording both streams would hold.
func TestMergeIsExactBucketwiseSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, both Histogram
	for i := 0; i < 5000; i++ {
		v := math.Exp2(rng.Float64()*40 - 20)
		if rng.Intn(2) == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	merged := a.Snapshot().Merge(b.Snapshot())
	want := both.Snapshot()
	if merged.Count != want.Count {
		t.Fatalf("merged count %d != combined count %d", merged.Count, want.Count)
	}
	if merged.Count != a.Snapshot().Count+b.Snapshot().Count {
		t.Fatalf("merged count %d != a+b counts", merged.Count)
	}
	if len(merged.Buckets) != len(want.Buckets) {
		t.Fatalf("merged has %d buckets, combined has %d", len(merged.Buckets), len(want.Buckets))
	}
	for i, bk := range merged.Buckets {
		if bk != want.Buckets[i] {
			t.Fatalf("bucket %d: merged %+v != combined %+v", i, bk, want.Buckets[i])
		}
	}
	// The sum differs only by float addition order.
	if math.Abs(merged.Sum-want.Sum) > 1e-6*math.Abs(want.Sum) {
		t.Fatalf("merged sum %g far from combined sum %g", merged.Sum, want.Sum)
	}
}

// TestQuantileBracketsTrueValue: the quantile estimate is the upper
// bound of the bucket holding the true quantile, so the true value lies
// within one bucket of the estimate: lower(bucket) <= true <= estimate.
func TestQuantileBracketsTrueValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	samples := make([]float64, 0, 4001)
	for i := 0; i < 4001; i++ {
		v := math.Exp2(rng.Float64()*30 - 15)
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Float64s(samples)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		truth := samples[rank-1]
		est := s.Quantile(q)
		bi := s.QuantileBucket(q)
		if truth > est {
			t.Fatalf("q=%g: true value %g exceeds estimate %g", q, truth, est)
		}
		if truth < BucketLower(bi) {
			t.Fatalf("q=%g: true value %g below estimate's bucket lower %g", q, truth, BucketLower(bi))
		}
		if est != BucketUpper(bi) {
			t.Fatalf("q=%g: estimate %g != upper bound of its bucket %g", q, est, BucketUpper(bi))
		}
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

// TestQuantileMergeEqualsPooled: the fleet property the router relies
// on — quantiles of the merged snapshot equal quantiles of one
// histogram that recorded every replica's samples.
func TestQuantileMergeEqualsPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pooled Histogram
	parts := make([]*Histogram, 3)
	for i := range parts {
		parts[i] = &Histogram{}
	}
	for i := 0; i < 9000; i++ {
		v := math.Exp2(rng.Float64()*24 - 12)
		parts[rng.Intn(len(parts))].Record(v)
		pooled.Record(v)
	}
	merged := parts[0].Snapshot()
	for _, p := range parts[1:] {
		merged = merged.Merge(p.Snapshot())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := merged.Quantile(q), pooled.Snapshot().Quantile(q); got != want {
			t.Fatalf("q=%g: merged quantile %g != pooled quantile %g", q, got, want)
		}
	}
}

// TestExpositionByteDeterministic: rendering the same registry state
// twice yields identical bytes, and re-recording the same values into a
// fresh registry yields those bytes again.
func TestExpositionByteDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry("test")
		c := r.Counter("jobs_total")
		r.GaugeFunc("queue_depth", func() float64 { return 3 })
		v := r.HistogramVec("solve_seconds", "scheme")
		for i := 0; i < 7; i++ {
			c.Inc()
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 500; i++ {
			scheme := []string{"CR-M", "PCG", "none"}[rng.Intn(3)]
			v.With(scheme).Record(math.Exp2(rng.Float64()*20 - 10))
		}
		return r
	}
	var b1, b2, b3 bytes.Buffer
	r := build()
	r.WritePrometheus(&b1)
	r.WritePrometheus(&b2)
	build().WritePrometheus(&b3)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two renders of one registry differ")
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("renders of identically-recorded registries differ")
	}
	if b1.Len() == 0 {
		t.Fatal("exposition is empty")
	}
}

// TestHistogramConcurrentRecord: concurrent records are all counted and
// snapshots taken mid-flight stay internally consistent.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.Record(float64(w+1) * 0.001)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		s := h.Snapshot()
		var n uint64
		for _, b := range s.Buckets {
			n += b.Count
		}
		if n != s.Count {
			t.Fatalf("snapshot count %d != bucket sum %d", s.Count, n)
		}
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("final count %d, want %d", got, workers*per)
	}
}
