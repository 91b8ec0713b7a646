package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilience"
	"resilience/internal/obs"
	"resilience/internal/sparse"
)

func TestLoadMatrixGrid(t *testing.T) {
	a, err := loadMatrix("", "ci", 6, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 36 {
		t.Errorf("grid rows %d", a.Rows)
	}
}

func TestLoadMatrixCatalog(t *testing.T) {
	a, err := loadMatrix("Kuu", "tiny", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows == 0 {
		t.Error("empty matrix")
	}
	if _, err := loadMatrix("nope", "tiny", 0, ""); err == nil {
		t.Error("unknown catalog name accepted")
	}
}

func TestLoadMatrixDefault(t *testing.T) {
	a, err := loadMatrix("", "ci", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 48*48 {
		t.Errorf("default rows %d", a.Rows)
	}
}

func TestLoadMatrixMatrixMarket(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	m := resilience.Laplacian2D(4)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a, err := loadMatrix("", "ci", 0, path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 16 || a.NNZ() != m.NNZ() {
		t.Errorf("round trip %v", a)
	}
	if _, err := loadMatrix("", "ci", 0, filepath.Join(dir, "missing.mtx")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPrintReport(t *testing.T) {
	a := resilience.Laplacian2D(12)
	b, _ := resilience.RHS(a)
	rep, err := resilience.Solve(a, b, resilience.SolveOptions{
		Scheme: "CR-M", Ranks: 4, Faults: 2, CkptEvery: 10, Tol: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	printReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{"converged:    true", "iterations:", "faults:       2",
		"checkpoints:", "energy[solve]", "avg power:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	a := resilience.Laplacian2D(8)
	b, _ := resilience.RHS(a)
	rep, err := resilience.Solve(a, b, resilience.SolveOptions{Ranks: 2, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeJSON(&sb, rep); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"Scheme": "FF"`, `"Converged": true`, `"Energy"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"Solution": [`) && strings.Contains(out, "0.9") {
		t.Error("bulky solution vector not stripped")
	}
}

func TestTraceCSVViaSolve(t *testing.T) {
	a := resilience.Laplacian2D(10)
	b, _ := resilience.RHS(a)
	rec := resilience.NewRecorder()
	_, err := resilience.Solve(a, b, resilience.SolveOptions{
		Scheme: "LI", Ranks: 2, Faults: 1, Tol: 1e-8, Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := obs.WriteEventsCSV(&sb, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fault,") {
		t.Errorf("trace CSV missing fault event:\n%.300s", sb.String())
	}
}
