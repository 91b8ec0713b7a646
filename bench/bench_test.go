package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"resilience/internal/chaos"
)

func metricNames(m map[string]metricValue) []string {
	var out []string
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func specNames(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// TestQuickWorkloads smoke-tests every workload, untraced and traced: no
// op may fail, and the metric names each run emits must be exactly the
// ones BENCHMARK.json declares, with the declared units.
func TestQuickWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, s := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		units[s.Name] = s.Unit
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, quick: true, inProcess: true, trace: traced}
			run, want := runUntraced, specNames(bf.EndToEnd)
			if traced {
				run, want = runTraced, specNames(bf.PerLayer)
			}
			res, d, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: attempted %d, failed %d, correct %t", name, traced, res.Attempted, res.Failed, res.Correct)
			}
			if d.InputDigest == "" || d.SimDigest == "" {
				t.Errorf("%s traced=%t: empty digest in %+v", name, traced, d)
			}
			if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%t: metric names differ from BENCHMARK.json\n got  %v\n want %v", name, traced, got, want)
			}
			for m, v := range res.Metrics {
				if v.Unit != units[m] {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m, v.Unit, units[m])
				}
			}
		}
	}
}

// TestBenchmarkFileLimits checks BENCHMARK.json against the limits the
// driver enforces on names and counts.
func TestBenchmarkFileLimits(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		benchmarkFile
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		check("per-layer", m.Name)
	}
	var names []string
	for _, w := range bf.Workloads {
		check("workload", w.Name)
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, the benchmark runs %v", names, workloadNames)
	}
}

// TestGeneratedScenariosAreFixpoints checks that the serve_hot generator
// only emits canonical strings — ParseArgs followed by Args gives the
// string back — and that it is a pure function of its seed.
func TestGeneratedScenariosAreFixpoints(t *testing.T) {
	scen, err := genScenarios(rand.New(rand.NewSource(1)), 256)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, s := range scen {
		p, err := chaos.ParseArgs(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := p.Args(); got != s {
			t.Errorf("not a fixpoint:\n in  %q\n out %q", s, got)
		}
		if seen[s] {
			t.Errorf("duplicate scenario %q", s)
		}
		seen[s] = true
	}
	again, err := genScenarios(rand.New(rand.NewSource(1)), 256)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(again, "\n") != strings.Join(scen, "\n") {
		t.Error("the same seed generated different scenarios")
	}
	for _, i := range genZipf(rand.New(rand.NewSource(1)), 1000, 256) {
		if i < 0 || i >= 256 {
			t.Fatalf("zipf index %d outside [0, 256)", i)
		}
	}
}

// TestNoForbiddenIdentifiers keeps the benchmark off the names ROADMAP
// items 2 and 5 are about to delete: naming them here would make those
// deletions edit the benchmark, which a non-benchmark change may not.
func TestNoForbiddenIdentifiers(t *testing.T) {
	// Spelled in halves so this file passes its own check.
	forbidden := []string{
		"Sched" + "Coop", "Sched" + "Goroutine", "SpMV" + "SELL", "SpMV" + "CSR",
		"RES" + "_", "internal" + "/trace",
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range forbidden {
			if strings.Contains(string(body), id) {
				t.Errorf("%s names %s", f, id)
			}
		}
	}
}
