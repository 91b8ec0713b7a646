package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilience"
)

func TestWriteCSVs(t *testing.T) {
	res, err := resilience.RunExperiment("fig1", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeCSVs(dir, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Class") {
		t.Errorf("CSV header missing:\n%s", data)
	}
}

func TestExperimentListComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range resilience.Experiments() {
		ids[r.ID] = true
	}
	for _, want := range []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"tab3", "tab4", "tab5", "tab6",
		"ablation-interval", "ablation-tol", "ablation-dvfs", "ablation-tmr",
		"ablation-multilevel", "ablation-sdc",
	} {
		if !ids[want] {
			t.Errorf("experiment %q not registered", want)
		}
	}
}
