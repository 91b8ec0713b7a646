package service

import (
	"strings"
	"testing"
)

// TestCanonicalKeyNormalizesSpellings: every spelling of the same job —
// flag order, whitespace, elided defaults, alternate float formats,
// reordered cross-iteration faults, an irrelevant timeout — must
// produce the identical key.
func TestCanonicalKeyNormalizesSpellings(t *testing.T) {
	base := JobRequest{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -detect 0 -seed 7 -faults SWO@5:r1,SNF@6:r0"}
	want, ok, err := CanonicalKey(base)
	if err != nil || !ok {
		t.Fatalf("base key: %q %v %v", want, ok, err)
	}
	equivalents := []JobRequest{
		// Flag order permuted.
		{Scenario: "-seed 7 -faults SWO@5:r1,SNF@6:r0 -scheme CR-M -ckpt 5 -grid 8 -ranks 4 -tol 1e-10"},
		// Extra whitespace.
		{Scenario: "  -grid   8 -ranks 4  -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@6:r0 "},
		// Defaults elided (grid 8, ranks 4, detect 0 are ParseArgs defaults).
		{Scenario: "-scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@6:r0"},
		// Alternate float spelling of the same tolerance.
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 0.0000000001 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@6:r0"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1E-10 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@6:r0"},
		// Leading zeros on integers.
		{Scenario: "-grid 08 -ranks 004 -scheme CR-M -tol 1e-10 -ckpt 05 -seed 07 -faults SWO@5:r1,SNF@6:r0"},
		// Faults listed in the other cross-iteration order (execution
		// stable-sorts by iteration, so this is the same job).
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SNF@6:r0,SWO@5:r1"},
		// Scheme alias and case variants resolve to the same spec.
		{Scenario: "-grid 8 -ranks 4 -scheme CRM -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@6:r0"},
		{Scenario: "-grid 8 -ranks 4 -scheme cr-m -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@6:r0"},
		// A timeout changes the deadline, never the result bytes.
		{Scenario: base.Scenario, TimeoutMs: 1234},
	}
	for _, eq := range equivalents {
		got, ok, err := CanonicalKey(eq)
		if err != nil || !ok {
			t.Fatalf("%q: %v %v", eq.Scenario, ok, err)
		}
		if got != want {
			t.Errorf("spelling %q:\n got %q\nwant %q", eq.Scenario, got, want)
		}
	}
}

// TestCanonicalKeyPreservesSameIterationOrder: two faults at the same
// iteration fire in list order (fault.NewSchedule is a stable sort),
// so swapping them is a DIFFERENT job and must get a different key.
func TestCanonicalKeyPreservesSameIterationOrder(t *testing.T) {
	a := JobRequest{Scenario: "-scheme CR-M -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@5:r0"}
	b := JobRequest{Scenario: "-scheme CR-M -ckpt 5 -seed 7 -faults SNF@5:r0,SWO@5:r1"}
	ka, _, err := CanonicalKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, _, err := CanonicalKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatalf("same-iteration fault order collapsed: %q", ka)
	}
}

// TestCanonicalKeyNonCacheable: sleeps are timing diagnostics, not pure
// functions of the request — never cacheable. Invalid jobs error: a bad
// value, or a flag the scenario codec does not know (-jacobi is retired).
func TestCanonicalKeyNonCacheable(t *testing.T) {
	if key, ok, err := CanonicalKey(JobRequest{SleepMs: 5}); ok || key != "" || err != nil {
		t.Fatalf("sleep: %q %v %v", key, ok, err)
	}
	for _, bad := range []string{
		"-grid banana",
		"-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -jacobi",
	} {
		if _, ok, err := CanonicalKey(JobRequest{Scenario: bad}); ok || err == nil {
			t.Errorf("bad scenario %q produced a key", bad)
		}
	}
}

// TestCanonicalKeyDistinctCorpus is the committed no-collision corpus:
// jobs that differ in any result-affecting field must map to distinct
// keys. FuzzCanonicalKey extends this with generated spellings.
func TestCanonicalKeyDistinctCorpus(t *testing.T) {
	corpus := []JobRequest{
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7"},
		{Scenario: "-grid 9 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7"},
		{Scenario: "-grid 8 -ranks 3 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-D -tol 1e-10 -ckpt 5 -seed 7"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-08 -ckpt 5 -seed 7"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 6 -seed 7"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 8"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -detect 2"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r1"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r2"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@6:r1"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SNF@5:r1"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@5:r0"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SNF@5:r0,SWO@5:r1"},
	}
	seen := make(map[string]string, len(corpus))
	for _, req := range corpus {
		key, ok, err := CanonicalKey(req)
		if err != nil || !ok {
			t.Fatalf("%+v: %v %v", req, ok, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("collision: %q maps both %+v and %s", key, req, prev)
		}
		seen[key] = req.Scenario
	}
}

func BenchmarkCanonicalEncode(b *testing.B) {
	req := JobRequest{Scenario: testScenario}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, ok, err := CanonicalKey(req)
		if !ok || err != nil || !strings.HasPrefix(key, "j1|") {
			b.Fatal("bad key")
		}
	}
}
