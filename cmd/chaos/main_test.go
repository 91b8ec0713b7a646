package main

import (
	"strings"
	"testing"
)

func TestRunSmallCampaign(t *testing.T) {
	if err := run(5, 1, 2, 3, strings.Join([]string{"LI", "CR-M"}, ","), 1e-10, true, "", "", false); err != nil {
		t.Fatalf("clean campaign failed: %v", err)
	}
}

func TestRunReplay(t *testing.T) {
	args := "-grid 6 -ranks 3 -scheme LI -tol 1e-10 -seed 5 -faults SNF@4:r1,SNF@4:r2"
	if err := run(0, 1, 1, 3, "LI", 1e-10, true, "", args, false); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
}

func TestRunReplayRejectsBadArgs(t *testing.T) {
	if err := run(0, 1, 1, 3, "LI", 1e-10, false, "", "-grid banana", false); err == nil {
		t.Fatal("bad replay string accepted")
	}
}

func TestRunReplayRejectsBreak(t *testing.T) {
	if err := run(0, 1, 1, 3, "LI", 1e-10, false, "convergence", "-grid 6 -ranks 2", false); err == nil {
		t.Fatal("-break accepted alongside -replay, where nothing would apply it")
	}
}

func TestRunBreakInvariantFails(t *testing.T) {
	err := run(8, 1, 2, 3, "LI", 1e-10, false, "convergence", "", false)
	if err == nil {
		t.Fatal("-break convergence campaign reported success")
	}
	if !strings.Contains(err.Error(), "violated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunRejectsUnknownInvariant(t *testing.T) {
	if err := run(1, 1, 1, 3, "LI", 1e-10, false, "not-an-invariant", "", false); err == nil {
		t.Fatal("unknown -break invariant accepted")
	}
}
