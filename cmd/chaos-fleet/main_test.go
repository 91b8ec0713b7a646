package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
	"resilience/internal/service"
)

// runArgs runs the command on args and returns its exit status, stdout
// and stderr.
func runArgs(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunSmallCampaign(t *testing.T) {
	code, out, errOut := runArgs("-oracle", "-recheck", "-n", "5", "-seed", "1", "-c", "2", "-schemes", "LI,CR-M")
	if code != 0 {
		t.Fatalf("clean campaign exited %d:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "5 scenarios via oracle") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

func TestRunReplay(t *testing.T) {
	args := "-grid 6 -ranks 3 -scheme LI -tol 1e-10 -seed 5 -faults SNF@4:r1,SNF@4:r2"
	code, out, errOut := runArgs("-recheck", "-replay", args)
	if code != 0 {
		t.Fatalf("replay exited %d:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "scheme=LI") {
		t.Fatalf("replay report missing:\n%s", out)
	}
}

func TestRunReplayRejectsBadArgs(t *testing.T) {
	if code, _, _ := runArgs("-replay", "-grid banana"); code != 2 {
		t.Fatalf("bad replay string exited %d, want 2", code)
	}
}

// TestRunReplayAppliesBreak: the replay line printed for a scenario the
// -break self-test shrank must reproduce its violation. The line is run
// as printed, with its shell quoting undone.
func TestRunReplayAppliesBreak(t *testing.T) {
	code, out, errOut := runArgs("-oracle", "-n", "50", "-seed", "1", "-break", "convergence")
	if code != 1 {
		t.Fatalf("-break convergence campaign exited %d, want 1:\n%s%s", code, out, errOut)
	}
	m := regexp.MustCompile(`replay: go run ./cmd/chaos-fleet -replay '([^']*)'(.*)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no replay line for the shrunk scenario:\n%s", out)
	}
	args := append([]string{"-replay", m[1]}, strings.Fields(m[2])...)
	if code, out, errOut := runArgs(args...); code != 1 || !strings.Contains(out, "deliberately broken") {
		t.Fatalf("replay %q exited %d, want 1 with the self-test violation:\n%s%s", args, code, out, errOut)
	}
	if code, _, _ := runArgs("-break", "gravity", "-replay", m[1]); code != 2 {
		t.Fatalf("-replay with an unknown -break invariant exited %d, want 2", code)
	}
}

// TestBreakRuleOneVerdict: the -break hook is one rule, so under -break
// convergence the in-process oracle, a service verdict job and -replay
// print the same verdict line for a faulted scenario (broken) and for a
// fault-free one (untouched).
func TestBreakRuleOneVerdict(t *testing.T) {
	const broken = chaos.InvConvergence
	for _, args := range []string{
		"-grid 6 -ranks 3 -scheme LI -tol 1e-10 -seed 5 -faults SNF@4:r1",
		"-grid 6 -ranks 2 -scheme LI -tol 1e-10 -ckpt 0 -detect 0 -seed 3",
	} {
		s, err := chaos.ParseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := fleet.NewOracle(broken, 1).Evaluate(context.Background(), []*chaos.Scenario{s})
		if err != nil {
			t.Fatal(err)
		}
		oracle := lines[0]
		if faulted := len(s.Faults) > 0; strings.Contains(oracle, "deliberately broken") != faulted {
			t.Fatalf("%s: oracle verdict %s, want the self-test violation iff faulted (%t)", args, oracle, faulted)
		}
		job, _, err := service.RunJob(context.Background(),
			service.JobRequest{Scenario: args, Verdict: true, BreakInvariant: broken})
		if err != nil {
			t.Fatal(err)
		}
		if job.Verdict != oracle {
			t.Errorf("%s: service verdict differs from the oracle's\n got: %s\nwant: %s", args, job.Verdict, oracle)
		}
		_, out, _ := runArgs("-break", broken, "-replay", args)
		m := regexp.MustCompile(`(?m)^  verdict: (.*)$`).FindStringSubmatch(out)
		if m == nil || m[1] != oracle {
			t.Errorf("%s: -replay verdict differs from the oracle's\n got: %s\nwant: %s", args, out, oracle)
		}
	}
}

func TestRunBreakInvariantFails(t *testing.T) {
	code, out, errOut := runArgs("-oracle", "-n", "8", "-seed", "1", "-c", "2", "-schemes", "LI", "-break", "convergence")
	if code != 1 {
		t.Fatalf("-break convergence campaign exited %d, want 1:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(errOut, "violated") {
		t.Fatalf("unexpected error output: %q", errOut)
	}
	if !strings.Contains(out, "replay: go run ./cmd/chaos-fleet -replay '") {
		t.Fatalf("no replay line for the shrunk scenario:\n%s", out)
	}
}

func TestRunRejectsUnknownInvariant(t *testing.T) {
	if code, _, _ := runArgs("-oracle", "-n", "1", "-schemes", "LI", "-break", "not-an-invariant"); code != 2 {
		t.Fatalf("unknown -break invariant exited %d, want 2", code)
	}
}

func TestRunRecheckNeedsInProcess(t *testing.T) {
	for _, args := range [][]string{
		{"-recheck", "-addr", "http://127.0.0.1:1", "-n", "1"},
		{"-recheck", "-n", "1"},
		{"-replay", "-grid 6 -ranks 2", "-addr", "http://127.0.0.1:1"},
	} {
		if code, _, _ := runArgs(args...); code != 2 {
			t.Errorf("%q exited %d, want 2 (usage error)", args, code)
		}
	}
}
