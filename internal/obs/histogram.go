package obs

import (
	"math"
	"sync/atomic"
)

// The shared log-bucket layout: histSubs sub-buckets per power-of-two
// octave, octaves histMinOct..histMaxOct, plus an underflow bucket
// (index 0, holding zero, negative, and sub-range values) and an
// overflow bucket (the last index). Bucket membership is computed from
// the float's exponent and mantissa (math.Frexp), which is exact
// integer arithmetic — no log() rounding, so the same value lands in
// the same bucket on every platform and merges stay exact.
//
// The range covers 2^-30 s (~1 ns) through 2^34 (~1.7e10) — wide
// enough for microsecond cache hits, multi-minute solves, and modeled
// per-job energies in joules — at 4 sub-buckets per octave, i.e. a
// quantile resolution of about +19%/-16% of the true value.
const (
	histSubs   = 4
	histMinOct = -30
	histMaxOct = 33

	histOctaves = histMaxOct - histMinOct + 1

	// NumBuckets is the fixed bucket-vector length shared by every
	// histogram: underflow + histOctaves*histSubs + overflow.
	NumBuckets = 2 + histOctaves*histSubs
)

// bucketIndex maps a sample to its bucket. Exact by construction:
// Frexp decomposes v = frac * 2^exp with frac in [0.5, 1), so
// frac*2*histSubs is an exact scale of the mantissa and the floor is
// the sub-bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return NumBuckets - 1
	}
	frac, exp := math.Frexp(v)
	oct := exp - 1 // 2^oct <= v < 2^(oct+1)
	if oct < histMinOct {
		return 0
	}
	if oct > histMaxOct {
		return NumBuckets - 1
	}
	sub := int(frac*(2*histSubs)) - histSubs // frac in [0.5,1) -> sub in [0,histSubs)
	return 1 + (oct-histMinOct)*histSubs + sub
}

// BucketUpper returns bucket i's inclusive upper bound: samples in
// bucket i satisfy BucketLower(i) <= v < BucketUpper(i) (the overflow
// bucket's upper bound is +Inf). Bounds are exact binary floats.
func BucketUpper(i int) float64 {
	switch {
	case i <= 0:
		return math.Ldexp(1, histMinOct)
	case i >= NumBuckets-1:
		return math.Inf(1)
	}
	k := i - 1
	oct := histMinOct + k/histSubs
	sub := k % histSubs
	return math.Ldexp(1+float64(sub+1)/histSubs, oct)
}

// BucketLower returns bucket i's lower bound (0 for the underflow
// bucket).
func BucketLower(i int) float64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumBuckets-1:
		return math.Ldexp(1, histMaxOct+1)
	}
	k := i - 1
	oct := histMinOct + k/histSubs
	sub := k % histSubs
	return math.Ldexp(1+float64(sub)/histSubs, oct)
}

// Histogram is one fixed log-bucketed distribution. Record is
// lock-free and allocation-free; concurrent recording is safe. The sum
// is tracked as float64 bits under CAS — informational (the exposition
// _total line), while the bucket counts are the exact, mergeable part.
type Histogram struct {
	name  string
	label string

	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Record adds one sample. 0 allocs/op, gated by
// BenchmarkHistogramRecord.
func (h *Histogram) Record(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Snapshot captures the histogram as a sparse bucket vector. The count
// is derived from the buckets, so a snapshot is always internally
// consistent (Count == sum of bucket counts) even when taken while
// records are in flight.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name, Label: h.label}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
			s.Count += n
		}
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// Bucket is one non-empty bucket of a histogram snapshot.
type Bucket struct {
	Index int    `json:"i"`
	Count uint64 `json:"n"`
}

// HistSnapshot is a point-in-time copy of one histogram: a sparse
// vector over the shared fixed bucket layout. Snapshots with the same
// layout (enforced by the package constant) merge exactly.
type HistSnapshot struct {
	Name    string   `json:"name"`
	Label   string   `json:"label,omitempty"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Merge returns the exact bucket-wise sum of h and o: the merged
// distribution is what one histogram would hold had it recorded both
// sample streams. Name and Label are taken from h.
func (h HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Name: h.Name, Label: h.Label, Sum: h.Sum + o.Sum}
	var full [NumBuckets]uint64
	for _, b := range h.Buckets {
		full[b.Index] += b.Count
	}
	for _, b := range o.Buckets {
		full[b.Index] += b.Count
	}
	for i, n := range full {
		if n > 0 {
			out.Buckets = append(out.Buckets, Bucket{Index: i, Count: n})
			out.Count += n
		}
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the sample of rank ceil(q*Count): the true
// quantile is guaranteed to lie within that bucket, i.e. in
// (BucketLower(i), estimate]. Returns 0 for an empty histogram.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	return BucketUpper(h.QuantileBucket(q))
}

// QuantileBucket returns the index of the bucket holding the sample of
// rank ceil(q*Count), -1 for an empty histogram.
func (h HistSnapshot) QuantileBucket(q float64) int {
	if h.Count == 0 {
		return -1
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.Index
		}
	}
	return h.Buckets[len(h.Buckets)-1].Index
}
