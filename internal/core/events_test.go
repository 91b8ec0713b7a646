package core

import (
	"bytes"
	"os"
	"testing"

	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/platform"
)

// eventLogGolden holds the event-log CSV of pinnedEventRuns, one section
// per scheme.
const eventLogGolden = "testdata/events.golden"

// pinnedEventRuns renders the event log of one faulted run per scheme: a
// 36-row system on four ranks, a node failure and a silent corruption
// scheduled on different ranks, detection prompt (DetectDelay 0).
func pinnedEventRuns(t *testing.T) []byte {
	t.Helper()
	a := matgen.Laplacian2D(6)
	b, _ := matgen.RHS(a)
	var out bytes.Buffer
	for _, name := range SchemeNames() {
		spec, _ := ParseScheme(name)
		if spec.Kind == FF {
			continue
		}
		if spec.Checkpoints() {
			spec.CkptEvery = 4
		}
		rec := obs.NewRecorder()
		_, err := Run(RunConfig{
			A: a, B: b, Ranks: 4, Plat: platform.Default(), Scheme: spec,
			Tol: 1e-10, MaxIters: 400, Seed: 5, Obs: rec,
			InjectorFactory: func() fault.Injector {
				return fault.NewSchedule([]fault.Fault{
					{Class: fault.SNF, Rank: 1, Iter: 3},
					{Class: fault.SDC, Rank: 2, Iter: 7},
				})
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out.WriteString("== " + name + "\n")
		if err := obs.WriteEventsCSV(&out, rec.Events()); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestEventLogPinned: the event log a run keeps — its iteration, fault,
// recovery and convergence records, CSV-encoded — is byte-identical to
// the committed golden for every scheme.
func TestEventLogPinned(t *testing.T) {
	want, err := os.ReadFile(eventLogGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinnedEventRuns(t); !bytes.Equal(got, want) {
		t.Errorf("event log differs from %s:\n%s", eventLogGolden, got)
	}
}
