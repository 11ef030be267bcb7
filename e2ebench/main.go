// Command e2ebench is skewvar's end-to-end benchmark. One invocation runs
// one workload in a fresh process, checks every output it produced, and
// prints one JSON result line:
//
//	e2ebench --workload global|local|serve-jobs --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the same untraced measurement runs, followed
// by one traced round whose per-layer breakdown is the result (and is
// printed as a table on standard error).
//
// Two more modes support the benchmark's upkeep:
//
//	e2ebench steady --workload W --runs N [--other DIR]   spread of repeated runs
//	e2ebench reference                                    README reference figures
//
// See README.md in this directory for the workloads, the metrics and the
// reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one named measurement of a result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the arguments of one benchmark run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	workDir string // scratch space for spools, removed at exit
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(runSteady(os.Args[2:]))
		case "reference":
			os.Exit(runReference(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 = report the per-layer breakdown of a traced round")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	// A run uses one P. The flows are serial at -j 1, and with a second P
	// the collector's idle-time mark workers took a varying share of the
	// otherwise idle core, which moved a flow round's CPU time by 6% within
	// a run (2.7% on one P). skewd keeps its nproc workers and clients,
	// which then share the P: concurrency without parallelism, whose
	// spinning threads would be counted as CPU time.
	runtime.GOMAXPROCS(1)
	dir, err := makeWorkDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	res, err := workloads[*workload](runOpts{
		seed: *seed, seconds: float64(*seconds), trace: *trace == 1, workDir: dir,
	})
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*result, error){
	"global":     func(o runOpts) (*result, error) { return runFlowWorkload(o, "global") },
	"local":      func(o runOpts) (*result, error) { return runFlowWorkload(o, "local") },
	"serve-jobs": runServeJobs,
}

var workloadNames = []string{"global", "local", "serve-jobs"}

// makeWorkDir creates the run's scratch directory under .bench_build in
// the current directory, so a run writes nothing outside its checkout.
func makeWorkDir() (string, error) {
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", base, err)
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", fmt.Errorf("creating a run directory: %w", err)
	}
	return filepath.Abs(dir)
}
