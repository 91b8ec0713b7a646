package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestDiffThreshold(t *testing.T) {
	base := map[string]Record{
		"SpMV":      {NsPerOp: 1000, AllocsPerOp: 0},
		"CGIter":    {NsPerOp: 20000, AllocsPerOp: 0},
		"Allreduce": {NsPerOp: 1200, AllocsPerOp: 0},
	}
	// Within threshold: 15% slower is fine at 20%.
	cur := map[string]Record{
		"SpMV":      {NsPerOp: 1150, AllocsPerOp: 0},
		"CGIter":    {NsPerOp: 19000, AllocsPerOp: 0},
		"Allreduce": {NsPerOp: 1200, AllocsPerOp: 0},
	}
	if regs := Diff(base, cur, 0.2, 0); len(regs) != 0 {
		t.Errorf("within-threshold diff flagged regressions: %v", regs)
	}
	// 30% slower regresses; a benchmark missing from the baseline does not.
	cur["SpMV"] = Record{NsPerOp: 1300}
	cur["NewBench"] = Record{NsPerOp: 1}
	regs := Diff(base, cur, 0.2, 0)
	if len(regs) != 1 || regs[0].Name != "SpMV" {
		t.Errorf("want exactly one SpMV ns/op regression, got %v", regs)
	}
	// A zero-allocation kernel starting to allocate always regresses, even
	// when faster.
	cur["SpMV"] = Record{NsPerOp: 500, AllocsPerOp: 2}
	regs = Diff(base, cur, 0.2, 0)
	if len(regs) != 1 || regs[0].Name != "SpMV" {
		t.Errorf("want exactly one SpMV allocs regression, got %v", regs)
	}
}

func TestDiffToleranceBytes(t *testing.T) {
	base := map[string]Record{
		"SpMV": {NsPerOp: 1000, BytesPerOp: 100},
	}
	// Growth within the tolerance passes.
	cur := map[string]Record{
		"SpMV": {NsPerOp: 1000, BytesPerOp: 160},
	}
	if regs := Diff(base, cur, 0.2, 64); len(regs) != 0 {
		t.Errorf("within-tolerance bytes growth flagged: %v", regs)
	}
	// Growth beyond the tolerance regresses even at identical speed.
	cur["SpMV"] = Record{NsPerOp: 1000, BytesPerOp: 165}
	regs := Diff(base, cur, 0.2, 64)
	if len(regs) != 1 || regs[0].Name != "SpMV" {
		t.Errorf("want exactly one SpMV bytes regression, got %v", regs)
	}
	// Zero tolerance: any growth fails; shrinking never does.
	cur["SpMV"] = Record{NsPerOp: 1000, BytesPerOp: 101}
	if regs := Diff(base, cur, 0.2, 0); len(regs) != 1 {
		t.Errorf("want bytes regression at zero tolerance, got %v", regs)
	}
	cur["SpMV"] = Record{NsPerOp: 1000, BytesPerOp: 50}
	if regs := Diff(base, cur, 0.2, 0); len(regs) != 0 {
		t.Errorf("bytes shrink flagged: %v", regs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	recs := map[string]Record{
		"SpMV/Laplacian2D-128": {NsPerOp: 136197.25, AllocsPerOp: 0, BytesPerOp: 0},
		"CGIteration/p4-g32":   {NsPerOp: 18649, AllocsPerOp: 0, BytesPerOp: 4},
	}
	e2e := map[string]float64{"goroutine": 1.25}
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := writeResults(path, recs, e2e, "ci"); err != nil {
		t.Fatal(err)
	}
	f, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema {
		t.Errorf("schema = %q, want %q", f.Schema, Schema)
	}
	if f.GoMaxProcs < 1 || f.NumCPU < 1 || f.CreatedUnix == 0 {
		t.Errorf("metadata not populated: %+v", f)
	}
	if !reflect.DeepEqual(f.E2EFig3Seconds, e2e) || f.E2EFig3Scale != "ci" {
		t.Errorf("e2e metadata mismatch: %+v scale=%q", f.E2EFig3Seconds, f.E2EFig3Scale)
	}
	if !reflect.DeepEqual(f.Benchmarks, recs) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", f.Benchmarks, recs)
	}
}

func TestReadBaselineRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/9","benchmarks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(path); err == nil {
		t.Error("wrong schema accepted")
	}
}
