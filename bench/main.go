// Command bench is the repository benchmark: four workloads, five
// end-to-end metrics and a per-layer ledger measured from outside the
// program. BENCHMARK.json at the repo root names the command, the
// workloads and every metric with its unit, direction and bound;
// bench/README.md explains them.
//
//	go run ./bench                       # all four workloads, end to end
//	go run ./bench -workload serve_hot   # one workload
//	go run ./bench -workload solve_comm -trace 1 -tracedir /tmp/t
//	go run ./bench -selfcheck            # A/A: two sets, compared to the bounds
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

//go:embed digests.json
var digestsJSON []byte

// committedDigests are the input and simulation digests of each workload
// at seed 1, full size.
var committedDigests = func() map[string]struct{ Input, Sim string } {
	var d map[string]struct{ Input, Sim string }
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic("bench: digests.json: " + err.Error()) // the embedded file is malformed: a bug
	}
	return d
}()

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var roundOnly, selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seeds every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceDir, "tracedir", "", "with -trace 1: write <workload>.trace.json here")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke test: tiny inputs, two passes")
	flag.BoolVar(&roundOnly, "round", false, "run one round in this process and print it (used by the benchmark itself)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced set twice and compare the two against the bounds")
	cpuProfile := flag.String("cpuprofile", "", "with -workload: write a CPU profile of the run here (regime evidence; slows the run)")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.inProcess = cfg.quick || *cpuProfile != ""

	switch {
	case roundOnly:
		r, err := runRound(cfg)
		if err != nil {
			fatal(err)
		}
		printJSON(r)
	case selfcheck:
		if err := runSelfcheck(cfg); err != nil {
			fatal(err)
		}
	case cfg.workload == "":
		if _, err := runSet(cfg, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fatal(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fatal(err)
			}
			defer f.Close()
			defer pprof.StopCPUProfile()
		}
		run := runUntraced
		if cfg.trace {
			run = runTraced
		}
		res, d, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		// A run that finished prints its result and exits 0 even when ops
		// failed: the result line is what reports them.
		printJSON(d)
		printJSON(res)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
