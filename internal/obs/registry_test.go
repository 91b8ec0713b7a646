package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryExpositionShape(t *testing.T) {
	r := NewRegistry("svc")
	c := r.Counter("jobs_admitted_total")
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	r.GaugeFunc("queue_depth", func() float64 { return 2 })
	r.GaugeFunc("workers", func() float64 { return 4 })
	v := r.HistogramVec("solve_wall_seconds", "scheme")
	v.With("CR-M").Record(0.25)
	v.With("CR-M").Record(0.5)
	r.Collector(func(e *Expo) { e.Int("custom_total", 9) })

	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"svc_jobs_admitted_total 3\n",
		"svc_queue_depth 2\n",
		"svc_workers 4\n",
		`svc_solve_wall_seconds_total{scheme="CR-M"} 0.75` + "\n",
		`svc_solve_wall_seconds_count{scheme="CR-M"} 2` + "\n",
		`svc_solve_wall_seconds_bucket{scheme="CR-M",le="+Inf"} 2` + "\n",
		`svc_solve_wall_seconds_p50{scheme="CR-M"} 0.3125` + "\n",
		"svc_custom_total 9\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Registration order: counter line precedes the histogram family.
	if strings.Index(out, "svc_jobs_admitted_total") > strings.Index(out, "svc_solve_wall_seconds_total") {
		t.Fatal("exposition does not follow registration order")
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	r := NewRegistry("svc")
	r.Counter("x")
	r.Counter("x")
}

// TestSnapshotJSONRoundTripAndMerge: the replica /telemetry document
// round-trips through JSON and the router-side Merge sums counters and
// merges histograms by (name, label).
func TestSnapshotJSONRoundTripAndMerge(t *testing.T) {
	mk := func(n int64, scheme string, vals ...float64) Snapshot {
		r := NewRegistry("svc")
		c := r.Counter("jobs_completed_total")
		for i := int64(0); i < n; i++ {
			c.Inc()
		}
		v := r.HistogramVec("solve_wall_seconds", "scheme")
		for _, x := range vals {
			v.With(scheme).Record(x)
		}
		return r.Snapshot()
	}
	a := mk(2, "CR-M", 0.1, 0.2)
	b := mk(3, "CR-M", 0.4)

	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	var fleet Snapshot
	Merge(&fleet, back)
	Merge(&fleet, b)
	if got := fleet.Counter("jobs_completed_total"); got != 5 {
		t.Fatalf("merged counter = %d, want 5", got)
	}
	h := fleet.Histogram("solve_wall_seconds")
	if h.Count != 3 {
		t.Fatalf("merged histogram count = %d, want 3", h.Count)
	}
	named := fleet.HistogramsNamed("solve_wall_seconds")
	if len(named) != 1 || named[0].Label != "CR-M" || named[0].Count != 3 {
		t.Fatalf("HistogramsNamed = %+v", named)
	}
}

func TestHistogramVecWithReturnsSameChild(t *testing.T) {
	r := NewRegistry("svc")
	v := r.HistogramVec("h", "k")
	if v.With("a") != v.With("a") {
		t.Fatal("With returned distinct children for one label")
	}
	v.With("b").Record(1)
	snaps := v.Snapshots()
	if len(snaps) != 2 || snaps[0].Label != "a" || snaps[1].Label != "b" {
		t.Fatalf("Snapshots not label-sorted: %+v", snaps)
	}
}

func TestFormatVal(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		3:      "3",
		-7:     "-7",
		0.25:   "0.25",
		1e20:   "1e+20",
		0.0001: "0.0001",
	}
	for v, want := range cases {
		if got := formatVal(v); got != want {
			t.Errorf("formatVal(%g) = %q, want %q", v, got, want)
		}
	}
}
