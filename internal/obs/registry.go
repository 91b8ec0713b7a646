package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-local metrics registry. Metrics are created
// once at wiring time and recorded against lock-free thereafter; the
// hot path (Counter.Inc, Histogram.Record) never allocates
// and never takes the registry lock. Exposition renders metrics in
// registration order with label values sorted, so the output for a
// fixed set of values is byte-deterministic.
type Registry struct {
	prefix string

	mu      sync.Mutex
	metrics []exposer
	names   map[string]bool
}

// exposer is anything the registry can render and snapshot.
type exposer interface {
	expose(e *Expo)
	snapshot(s *Snapshot)
}

// NewRegistry returns an empty registry. prefix (e.g. "resilienced")
// is prepended with an underscore to every exposed metric name.
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix, names: make(map[string]bool)}
}

func (r *Registry) register(name string, m exposer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a monotone int64 counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{name: name}
	r.register(name, c)
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.register(name, &gaugeFunc{name: name, fn: fn})
}

// HistogramVec registers a family of histograms keyed by one label
// (e.g. scheme). With("") serves as the unlabeled singleton.
func (r *Registry) HistogramVec(name, labelKey string) *HistogramVec {
	v := &HistogramVec{name: name, labelKey: labelKey, children: make(map[string]*Histogram)}
	r.register(name, v)
	return v
}

// Collector registers a scrape-time callback that appends lines
// through the exposition writer. It exists for metrics whose label
// sets are dynamic (per-replica rows on the router); callbacks must
// emit in a deterministic order themselves.
func (r *Registry) Collector(fn func(e *Expo)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, collectorFunc(fn))
}

// WritePrometheus renders every metric in registration order in the
// Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) {
	e := &Expo{w: w, prefix: r.prefix}
	r.mu.Lock()
	ms := make([]exposer, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		m.expose(e)
	}
}

// Snapshot captures every counter, gauge, and histogram as a
// JSON-marshalable value (registration order, label values sorted).
// Collectors are exposition-only and not snapshotted.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.mu.Lock()
	ms := make([]exposer, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		m.snapshot(&s)
	}
	return s
}

// Counter is a monotone counter. Inc is lock-free and 0 allocs.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(e *Expo) { e.Int(c.name, c.v.Load()) }
func (c *Counter) snapshot(s *Snapshot) {
	s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.v.Load()})
}

type gaugeFunc struct {
	name string
	fn   func() float64
}

func (g *gaugeFunc) expose(e *Expo) { e.Line(g.name, g.fn()) }
func (g *gaugeFunc) snapshot(s *Snapshot) {
	s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.fn()})
}

type collectorFunc func(e *Expo)

func (c collectorFunc) expose(e *Expo)       { c(e) }
func (c collectorFunc) snapshot(s *Snapshot) {}

// HistogramVec is a family of histograms keyed by one label value.
// With is the hot-path accessor: a read-locked map hit, no
// allocation; children are created on first use.
type HistogramVec struct {
	name     string
	labelKey string

	mu       sync.RWMutex
	children map[string]*Histogram
}

// With returns the child histogram for the given label value,
// creating it on first use.
func (v *HistogramVec) With(label string) *Histogram {
	v.mu.RLock()
	h, ok := v.children[label]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[label]; ok {
		return h
	}
	h = &Histogram{name: v.name, label: label}
	v.children[label] = h
	return h
}

// labels returns the child label values, sorted.
func (v *HistogramVec) labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	ls := make([]string, 0, len(v.children))
	for l := range v.children {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// Snapshots returns the sorted-by-label snapshots of every child.
func (v *HistogramVec) Snapshots() []HistSnapshot {
	ls := v.labels()
	out := make([]HistSnapshot, 0, len(ls))
	for _, l := range ls {
		v.mu.RLock()
		h := v.children[l]
		v.mu.RUnlock()
		out = append(out, h.Snapshot())
	}
	return out
}

// exposeQuantiles is the quantile set rendered for every histogram.
var exposeQuantiles = []struct {
	suffix string
	q      float64
}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}}

func (v *HistogramVec) expose(e *Expo) {
	for _, s := range v.Snapshots() {
		exposeHist(e, v.labelKey, s)
	}
}

// exposeHist renders one histogram snapshot: the _total (sum) and
// _count lines, cumulative _bucket lines for the non-empty buckets
// plus +Inf, and the quantile estimates. The _total suffix (rather
// than Prometheus's _sum) keeps the pre-histogram metric names — e.g.
// resilienced_solve_virtual_seconds_total{scheme="CR-M"} — stable for
// existing scrapers.
func exposeHist(e *Expo, labelKey string, s HistSnapshot) {
	e.LineL(s.Name+"_total", labelKey, s.Label, s.Sum)
	e.IntL(s.Name+"_count", labelKey, s.Label, int64(s.Count))
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		e.bucket(s.Name, labelKey, s.Label, formatVal(BucketUpper(b.Index)), cum)
	}
	if s.Count > 0 {
		e.bucket(s.Name, labelKey, s.Label, "+Inf", cum)
	}
	for _, pq := range exposeQuantiles {
		e.LineL(s.Name+pq.suffix, labelKey, s.Label, s.Quantile(pq.q))
	}
}

func (v *HistogramVec) snapshot(s *Snapshot) {
	s.Histograms = append(s.Histograms, v.Snapshots()...)
}

// Snapshot is a registry's JSON-marshalable state: what a replica
// serves on /telemetry and what the router merges into the fleet view.
type Snapshot struct {
	Counters   []CounterSnap  `json:"counters,omitempty"`
	Gauges     []GaugeSnap    `json:"gauges,omitempty"`
	Histograms []HistSnapshot `json:"histograms,omitempty"`
}

// CounterSnap is one counter's snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Merge folds src into dst: counters and gauges sum by name,
// histograms merge bucket-wise by (name, label). The result is exactly
// what one process would report had it observed both sample streams;
// ordering is dst-first then src-only entries in src order, so merging
// identically-shaped snapshots is order-deterministic.
func Merge(dst *Snapshot, src Snapshot) {
	for _, c := range src.Counters {
		found := false
		for i := range dst.Counters {
			if dst.Counters[i].Name == c.Name {
				dst.Counters[i].Value += c.Value
				found = true
				break
			}
		}
		if !found {
			dst.Counters = append(dst.Counters, c)
		}
	}
	for _, g := range src.Gauges {
		found := false
		for i := range dst.Gauges {
			if dst.Gauges[i].Name == g.Name {
				dst.Gauges[i].Value += g.Value
				found = true
				break
			}
		}
		if !found {
			dst.Gauges = append(dst.Gauges, g)
		}
	}
	for _, h := range src.Histograms {
		found := false
		for i := range dst.Histograms {
			if dst.Histograms[i].Name == h.Name && dst.Histograms[i].Label == h.Label {
				dst.Histograms[i] = dst.Histograms[i].Merge(h)
				found = true
				break
			}
		}
		if !found {
			dst.Histograms = append(dst.Histograms, h)
		}
	}
}

// Histogram returns the merged snapshot named name across every label
// value (the fleet-wide "all schemes" view), or an empty snapshot.
func (s Snapshot) Histogram(name string) HistSnapshot {
	out := HistSnapshot{Name: name}
	for _, h := range s.Histograms {
		if h.Name == name {
			out = out.Merge(h)
		}
	}
	return out
}

// HistogramsNamed returns the label-sorted snapshots named name.
func (s Snapshot) HistogramsNamed(name string) []HistSnapshot {
	var out []HistSnapshot
	for _, h := range s.Histograms {
		if h.Name == name {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// Expo writes Prometheus text lines with a fixed prefix. Values render
// as integers when integral (matching the repo's established /metrics
// style) and as shortest-form %g otherwise.
type Expo struct {
	w      io.Writer
	prefix string
}

// Line writes `<prefix>_<name> <v>`.
func (e *Expo) Line(name string, v float64) {
	fmt.Fprintf(e.w, "%s_%s %s\n", e.prefix, name, formatVal(v))
}

// Int writes `<prefix>_<name> <v>` for an integer value.
func (e *Expo) Int(name string, v int64) {
	fmt.Fprintf(e.w, "%s_%s %d\n", e.prefix, name, v)
}

// LineL writes a labeled line; an empty labelKey or labelVal falls
// back to the unlabeled form.
func (e *Expo) LineL(name, labelKey, labelVal string, v float64) {
	if labelKey == "" || labelVal == "" {
		e.Line(name, v)
		return
	}
	fmt.Fprintf(e.w, "%s_%s{%s=%q} %s\n", e.prefix, name, labelKey, labelVal, formatVal(v))
}

// IntL is LineL for integer values.
func (e *Expo) IntL(name, labelKey, labelVal string, v int64) {
	if labelKey == "" || labelVal == "" {
		e.Int(name, v)
		return
	}
	fmt.Fprintf(e.w, "%s_%s{%s=%q} %d\n", e.prefix, name, labelKey, labelVal, v)
}

// bucket writes one cumulative bucket line with the le label (plus the
// vec label when present).
func (e *Expo) bucket(name, labelKey, labelVal, le string, cum uint64) {
	if labelKey == "" || labelVal == "" {
		fmt.Fprintf(e.w, "%s_%s_bucket{le=%q} %d\n", e.prefix, name, le, cum)
		return
	}
	fmt.Fprintf(e.w, "%s_%s_bucket{%s=%q,le=%q} %d\n", e.prefix, name, labelKey, labelVal, le, cum)
}

// formatVal renders integral values without a decimal point and
// everything else in strconv's shortest 'g' form — deterministic for a
// fixed value, matching the style of the hand-rolled exposition this
// registry replaces.
func formatVal(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// Normalize Inf spellings to Prometheus's.
	if strings.HasSuffix(s, "Inf") {
		if strings.HasPrefix(s, "-") {
			return "-Inf"
		}
		return "+Inf"
	}
	return s
}
