package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// metric names with their direction and bound.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// runChild runs one workload in its own process, so set-up time, CPU
// time and peak memory are per workload, and returns its result line.
// The child's other output is copied to out.
func runChild(cfg config, workload string, out io.Writer) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(out, "%s\n", l)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runSet runs the four workloads one after the other and prints one row
// per workload and end-to-end metric.
func runSet(cfg config, out io.Writer) (map[string]result, error) {
	set := make(map[string]result)
	w := bufio.NewWriter(out)
	defer w.Flush()
	for _, name := range workloadNames {
		res, err := runChild(cfg, name, w)
		if err != nil {
			return nil, err
		}
		set[name] = res
		fmt.Fprintf(w, "%-13s attempted %d failed %d correct %t\n", name, res.Attempted, res.Failed, res.Correct)
		for _, m := range endToEndNames {
			v := res.Metrics[m]
			fmt.Fprintf(w, "%-13s %-15s %14.6g %s\n", name, m, v.Value, v.Unit)
		}
		w.Flush()
	}
	return set, nil
}

var endToEndNames = []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_op"}

// runSelfcheck is the A/A test: the same code measured twice must agree
// within the benchmark's own bounds. It reads the bounds from
// BENCHMARK.json in the working directory.
func runSelfcheck(cfg config) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs BENCHMARK.json in the working directory: %w", err)
	}
	var sets [2]map[string]result
	for i := range sets {
		fmt.Printf("--- set %c\n", 'A'+i)
		if sets[i], err = runSet(cfg, os.Stdout); err != nil {
			return err
		}
	}
	fmt.Printf("--- A/A\n%-13s %-15s %14s %14s %8s %8s\n", "workload", "metric", "A", "B", "worse", "bound")
	var bad []string
	for _, name := range workloadNames {
		a, b := sets[0][name], sets[1][name]
		if !a.Correct || !b.Correct {
			bad = append(bad, name+": ops failed")
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			// worse is how far the worse set lies from the better one, as
			// a share of the better: the regression a comparison of the
			// two sets would report in its less favourable order.
			worse := math.Abs(va-vb) / math.Min(va, vb)
			mark := ""
			if worse > m.Bound {
				mark = "  OVER"
				bad = append(bad, name+"/"+m.Name)
			}
			fmt.Printf("%-13s %-15s %14.6g %14.6g %7.2f%% %7.0f%%%s\n", name, m.Name, va, vb, 100*worse, 100*m.Bound, mark)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: the two sets disagree beyond the bound on %s", strings.Join(bad, ", "))
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return nil
}
