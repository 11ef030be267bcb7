package main

import (
	"fmt"
	"os"
	"runtime"
)

// runReference regenerates the README's reference figures from scratch:
// the scale of every input, per-testcase flow times, the spread of wall
// time against CPU time and of -j 1 against -j 2, the LP share and wasted
// iterations of the global flow, the ΣV reference values, per-job times
// of serve-jobs and a traced serve-jobs round. It prints Markdown on
// standard output.
func runReference(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "reference: takes no arguments")
		return 2
	}
	dir, err := makeWorkDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reference: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if err := reference(dir); err != nil {
		fmt.Fprintf(os.Stderr, "reference: %v\n", err)
		return 1
	}
	return 0
}

// referenceRounds is how many rounds reference runs per flow and worker
// count.
const referenceRounds = 6

func reference(dir string) error {
	fmt.Printf("Host: %d CPUs (runtime.NumCPU), %s/%s, %s\n", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	order := []int{0, 1, 2}
	for _, flow := range []string{"global", "local"} {
		sc := flowScales[flow]
		e, err := setupEnv(sc.ffs)
		if err != nil {
			return err
		}
		fmt.Printf("\n### %s testcases (%d flip-flops requested, pair cap %d, local iterations %d)\n\n", flow, sc.ffs, sc.pairs, sc.iters)
		fmt.Println("| testcase | sinks | buffers | pairs | corners |")
		fmt.Println("|---|---|---|---|---|")
		for _, tc := range e.cases {
			d := tc.design
			fmt.Printf("| %s | %d | %d | %d | %v |\n", tc.name, len(d.Tree.Sinks()), len(d.Tree.Buffers()), len(d.TopPairs(sc.pairs)), d.CornerNames)
		}
		fmt.Printf("\n### %s flow, %d rounds per worker count\n\n", flow, referenceRounds)
		fmt.Println("| -j | testcase | median s | original ΣV ps | final ΣV ps |")
		fmt.Println("|---|---|---|---|---|")
		spread := map[int][2][]float64{}
		for _, j := range []int{1, 2} {
			per := map[int][]float64{}
			var wall, cpu []float64
			var last []flowOutcome
			for r := 0; r < referenceRounds; r++ {
				out, rs, err := flowRound(e, flow, order, j, e.model, nil, nil)
				if err != nil {
					return err
				}
				wall, cpu = append(wall, rs.wallS), append(cpu, rs.cpuS)
				for _, o := range out {
					per[o.tc] = append(per[o.tc], o.flowS)
				}
				last = out
			}
			spread[j] = [2][]float64{wall, cpu}
			var total float64
			for _, o := range last {
				v, err := checkFlowOutcome(e, o, flow)
				if err != nil {
					return fmt.Errorf("%s %s: %w", flow, e.cases[o.tc].name, err)
				}
				total += v
				fmt.Printf("| %d | %s | %.3f | %.3f | %.3f |\n", j, e.cases[o.tc].name, median(per[o.tc]), o.res.Orig.SumVarPS, v)
			}
			fmt.Printf("| %d | **sumvar_ps** | | | **%.6f** |\n", j, total)
		}
		fmt.Println("\n| -j | round wall median s | wall iqr/median | round CPU median s | CPU iqr/median |")
		fmt.Println("|---|---|---|---|---|")
		for _, j := range []int{1, 2} {
			w, c := spread[j][0], spread[j][1]
			wq1, wq3 := quartiles(w)
			cq1, cq3 := quartiles(c)
			fmt.Printf("| %d | %.3f | %.4f | %.3f | %.4f |\n", j, median(w), (wq3-wq1)/median(w), median(c), (cq3-cq1)/median(c))
		}
		r, err := traceFlowRound(e, flow, order, dir)
		if err != nil {
			return err
		}
		r.overheadS = r.wallS - median(spread[1][0])
		rows, _ := r.rows()
		fmt.Printf("\nTraced round: wall %.3f s; lp %.1f%% of it; %g LP solves, %g iterations, %g wasted (infeasible or reverted).\n",
			r.wallS, 100*rows["lp"]/r.wallS, r.counts["lp.solves"], r.counts["lp.iterations"], r.counts["lp.wasted_iterations"])
		r.print(os.Stdout, flow)
	}

	fmt.Printf("\n### serve-jobs (%d flip-flops requested, pairs %d, local iterations %d, %d workers and clients)\n\n",
		jobFFs, jobPairs, jobIters, runtime.NumCPU())
	res, err := runServeJobs(runOpts{seed: 1, seconds: 30, trace: true, workDir: dir})
	if err != nil {
		return err
	}
	fmt.Printf("Per-job times and the layer table are on standard error. Metrics of a 30 s run with a traced round, seed 1 (%d jobs, %d failed):\n\n", res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("- %s: %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return nil
}
