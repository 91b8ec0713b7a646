package obs

import (
	"strings"
	"testing"

	"resilience/internal/fault"
)

func TestWriteEventsCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteEventsCSV(&sb, []Event{
		{Kind: Iteration, Iter: 3, Clock: 0.25, RelRes: 1e-3},
		{Kind: FaultEvent, Iter: 4, Rank: 2, Fault: fault.Fault{Class: fault.SNF, Rank: 2, Iter: 4, Time: 0.5}},
		{Kind: RecoveryEvent, Iter: 4, Rank: 2, Scheme: `has,comma and "quote"`},
		{Kind: ConvergedEvent, Iter: 9, RelRes: 1e-9, Converged: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "kind,iter,rank,clock,relres,detail\n") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "iter,3,0,0.25,0.001,\n") {
		t.Errorf("iteration row missing:\n%s", out)
	}
	if !strings.Contains(out, "fault,4,2,0,0,SNF on rank 2 at iter 4 (t=0.5s)\n") {
		t.Errorf("fault row missing:\n%s", out)
	}
	if !strings.Contains(out, `"has,comma and ""quote"""`) {
		t.Errorf("detail quoting wrong:\n%s", out)
	}
	if !strings.Contains(out, "converged,9,0,0,1e-09,converged=true\n") {
		t.Errorf("converged row missing:\n%s", out)
	}
}

func TestKindString(t *testing.T) {
	if Iteration.String() != "iter" || ConvergedEvent.String() != "converged" {
		t.Error("kind names")
	}
	if EventKind(99).String() == "iter" {
		t.Error("unknown kind")
	}
}
