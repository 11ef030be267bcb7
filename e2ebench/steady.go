package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadySeed0 is the seed of a steadiness run's first run; run i uses
// steadySeed0+i.
const steadySeed0 = 1

// runSteady runs one workload --runs times, each run a fresh process with
// its own seed and BENCHMARK.json's run_seconds, alternating with a second
// checkout when --other names one, and prints each metric's median,
// quartiles and quartile distance as a share of the median. The bounds in
// BENCHMARK.json are set from this output: a bound must stay above three
// times the spread seen here.
func runSteady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "runs per checkout")
	other := fs.String("other", "", "root of a second checkout to alternate with")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *runs < 1 {
		fmt.Fprintf(os.Stderr, "steady: need --workload (%s) and --runs >= 1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	var bench benchmarkFile
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err == nil && bench.RunSeconds < 1 {
		err = fmt.Errorf("run_seconds %d is below 1", bench.RunSeconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: BENCHMARK.json: %v\n", err)
		return 1
	}
	seconds := bench.RunSeconds
	sides := []string{"."}
	if *other != "" {
		sides = append(sides, *other)
	}
	got := make([][]*result, len(sides))
	for i := 0; i < *runs; i++ {
		for n := range sides {
			side := (n + i) % len(sides) // alternate which checkout runs first
			r, err := runOnce(sides[side], *workload, steadySeed0+int64(i), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s run %d: %v\n", sides[side], i+1, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "steady: %s run %d done\n", sides[side], i+1)
			got[side] = append(got[side], r)
		}
	}
	bounds, higher := map[string]float64{}, map[string]bool{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
		higher[m.Name] = m.Better == "higher"
	}
	medians := make([]map[string]float64, len(sides))
	for s, rs := range got {
		fmt.Printf("%s: %s, %d runs of %d s\n", sides[s], *workload, len(rs), seconds)
		attempted, failed := 0, 0
		vals := map[string][]float64{}
		for _, r := range rs {
			attempted += r.Attempted
			failed += r.Failed
			for k, m := range r.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
		}
		fmt.Printf("  failed %d of %d operations\n", failed, attempted)
		fmt.Printf("  %-14s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "bound")
		medians[s] = map[string]float64{}
		for _, k := range sortedKeys(vals) {
			med := median(vals[k])
			q1, q3 := quartiles(vals[k])
			medians[s][k] = med
			flag := ""
			if b, ok := bounds[k]; ok && (q3-q1)/med > b/3 {
				flag = "  spread above a third of the bound"
			}
			fmt.Printf("  %-14s %12.5g %12.5g %12.5g %8.4f %8.3g%s\n", k, med, q1, q3, (q3-q1)/med, bounds[k], flag)
		}
	}
	if len(sides) == 2 {
		fmt.Printf("median of %s over median of %s:\n", sides[1], sides[0])
		for _, k := range sortedKeys(medians[0]) {
			ratio := medians[1][k] / medians[0][k]
			worse := ratio - 1
			if higher[k] {
				worse = 1 - ratio
			}
			flag := ""
			if b, ok := bounds[k]; ok && worse > b {
				flag = "  worse by more than the bound"
			}
			fmt.Printf("  %-14s %8.4f%s\n", k, ratio, flag)
		}
	}
	return 0
}

// runOnce runs the benchmark once in the checkout at dir and parses the
// result line.
func runOnce(dir, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command("bash", "e2ebench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, lastLines(errb.String(), 5))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &r, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
