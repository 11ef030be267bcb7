package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/obs"
	"skewvar/internal/sta"
)

// flowScale sizes a flow workload: flip-flops per testcase, the pair cap
// of the objective and the local flow's iteration cap.
type flowScale struct {
	ffs, pairs, iters int
}

// flowScales keep one round of three flows to a few seconds, so a run
// holds several rounds and reports the fastest. The pair cap exceeds
// every testcase's pair count, so all pairs enter the objective.
var flowScales = map[string]flowScale{
	"global": {ffs: 80, pairs: 100},
	"local":  {ffs: 60, pairs: 100, iters: 2},
}

// flowOutcome is one testcase's flow within a round.
type flowOutcome struct {
	tc     int
	in     *ctree.Design
	res    *core.FlowResult
	timer  *sta.Timer
	flowS  float64 // admission through the returned result
	admitS float64 // parse and validation of the design document
	cache  sta.CacheStats
}

// roundStats are the wall time, host-speed-scaled CPU time and raw CPU
// time of one round, summed over its operations.
type roundStats struct {
	wallS, cpuS, rawS float64
}

// flowRound runs the flow on every testcase once, in the given order, at
// the given worker count, and returns the outcomes in that order. Each
// flow is one operation of sm (nil: unscaled, with no calibration).
func flowRound(e *env, flow string, order []int, workers int, model core.StageModel, rec *obs.Recorder, sm *speedMeter) ([]flowOutcome, roundStats, error) {
	var out []flowOutcome
	var rs roundStats
	for _, i := range order {
		var o flowOutcome
		scaled, raw, err := sm.measure(func() (err error) {
			o, err = flowOp(e, flow, i, workers, model, rec)
			return err
		})
		if err != nil {
			return nil, roundStats{}, err
		}
		out = append(out, o)
		rs.wallS += o.flowS
		rs.cpuS += scaled
		rs.rawS += raw
	}
	return out, rs, nil
}

// flowOp admits testcase i's design document and runs the flow on it.
func flowOp(e *env, flow string, i, workers int, model core.StageModel, rec *obs.Recorder) (flowOutcome, error) {
	sc := flowScales[flow]
	tc := e.cases[i]
	a := time.Now()
	d, err := readDesign(e.tech, tc.doc)
	if err != nil {
		return flowOutcome{}, fmt.Errorf("%s: admitting the design: %w", tc.name, err)
	}
	view, err := e.tech.SubCorners(d.CornerNames...)
	if err != nil {
		return flowOutcome{}, fmt.Errorf("%s: corner view: %w", tc.name, err)
	}
	tm := sta.New(view)
	tm.Cong = tc.cong
	admitted := time.Now()
	res, err := core.RunFlows(context.Background(), tm, e.char, d, model, core.FlowConfig{
		TopPairs: sc.pairs,
		Global:   core.GlobalConfig{MaxPairsPerLP: sc.pairs},
		Local:    core.LocalConfig{MaxIters: sc.iters},
		Only:     []string{flow},
		Workers:  workers,
		Obs:      rec,
	})
	if err != nil {
		return flowOutcome{}, fmt.Errorf("%s: %s flow: %w", tc.name, flow, err)
	}
	return flowOutcome{
		tc: i, in: d, res: res, timer: tm,
		flowS:  time.Since(a).Seconds(),
		admitS: admitted.Sub(a).Seconds(),
		cache:  tm.CacheStats(),
	}, nil
}

// flowTree returns the tree and ΣV a flow reported.
func flowTree(res *core.FlowResult, flow string) (*ctree.Tree, float64) {
	if flow == "global" {
		return res.Trees["global"], res.Global.SumVarPS
	}
	return res.Trees["local"], res.Local.SumVarPS
}

// runFlowWorkload measures the global or local flow on the three
// testcases at -j 1. A round is the three flows in a seeded order; rounds
// repeat until the measured phase has lasted opts.seconds.
func runFlowWorkload(opts runOpts, flow string) (*result, error) {
	sm := &speedMeter{}
	e, st, err := repeatSetup(sm, func() (*env, *env, error) {
		e, err := setupEnv(flowScales[flow].ffs)
		return e, e, err
	}, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.seed))

	var rounds []roundStats
	var outcomes [][]flowOutcome
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < opts.seconds {
		out, rs, err := flowRound(e, flow, rng.Perm(len(e.cases)), 1, e.model, nil, sm)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rs)
		outcomes = append(outcomes, out)
	}

	var traced *layerReport
	if opts.trace {
		traced, err = traceFlowRound(e, flow, rng.Perm(len(e.cases)), opts.workDir)
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, traced.outcomes)
	}

	// Every output of every round is checked, outside the timed region.
	attempted, failed := 0, 0
	sumVar := map[int]float64{}
	for _, round := range outcomes {
		for _, o := range round {
			attempted++
			v, err := checkFlowOutcome(e, o, flow)
			if err == nil {
				if prev, ok := sumVar[o.tc]; ok && prev != v {
					err = fmt.Errorf("ΣV %.6f ps differs from an earlier round's %.6f ps", v, prev)
				}
				sumVar[o.tc] = v
			}
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "e2ebench: %s %s: check failed: %v\n", e.cases[o.tc].name, flow, err)
			}
		}
	}
	var total float64
	for i := range e.cases {
		total += sumVar[i]
	}

	// Wall times are reported by the traced run only: on a shared host,
	// steal and neighbours' load moved them by more than twice between
	// runs of the same code. The fastest round, and each testcase's
	// fastest flow, are the wall times least slowed by that load.
	var wall, cpu, raw []float64
	perCase := map[int][]float64{}
	for i, rs := range rounds {
		wall = append(wall, rs.wallS)
		cpu = append(cpu, rs.cpuS)
		raw = append(raw, rs.rawS)
		for _, o := range outcomes[i] {
			perCase[o.tc] = append(perCase[o.tc], o.flowS*1000)
		}
	}
	var jobMS []float64
	for _, ms := range perCase {
		jobMS = append(jobMS, minimum(ms))
	}
	flowS := minimum(wall)
	reportFlowTimes(flow, e, outcomes[:len(rounds)], rounds)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !opts.trace {
		res.Metrics = map[string]metric{
			"setup_s":   {st.cpu, "s"},
			"cpu_s":     {median(cpu), "s"},
			"sumvar_ps": {total, "ps"},
		}
		return res, nil
	}
	traced.setup = st
	traced.overheadS = traced.wallS - flowS
	traced.counts["cpu.raw_s"] = median(raw)
	traced.counts["host.speed"] = sm.speed()
	traced.counts["wall.flow_s"] = flowS
	traced.counts["wall.jobs_per_s"] = float64(len(e.cases)) / flowS
	traced.counts["wall.job_p50_ms"] = median(jobMS)
	res.Metrics = traced.metrics()
	traced.print(os.Stderr, flow)
	return res, nil
}

// checkFlowOutcome writes a flow's output tree as skewopt -o would, and
// checks it; it returns the tree's re-timed ΣV.
func checkFlowOutcome(e *env, o flowOutcome, flow string) (float64, error) {
	tr, reported := flowTree(o.res, flow)
	if tr == nil {
		return 0, fmt.Errorf("flow returned no %s tree", flow)
	}
	doc, err := writeDesign(o.in, tr)
	if err != nil {
		return 0, fmt.Errorf("writing the output design: %w", err)
	}
	return checkOutput(o.timer.Tech, e.cases[o.tc].cong, o.in, flowScales[flow].pairs, doc, reported)
}

// reportFlowTimes prints the per-testcase and per-round reference figures
// to standard error; they are not metrics.
func reportFlowTimes(flow string, e *env, outcomes [][]flowOutcome, rounds []roundStats) {
	per := map[int][]float64{}
	for _, r := range outcomes {
		for _, o := range r {
			per[o.tc] = append(per[o.tc], o.flowS)
		}
	}
	for i, tc := range e.cases {
		fmt.Fprintf(os.Stderr, "e2ebench: %s %s: median %.3f s over %d rounds\n", flow, tc.name, median(per[i]), len(per[i]))
	}
	reportRounds(flow, rounds)
}

// reportRounds prints each round's times and their medians and quartiles
// to standard error.
func reportRounds(workload string, rounds []roundStats) {
	var wall, cpu, raw []float64
	for i, rs := range rounds {
		fmt.Fprintf(os.Stderr, "e2ebench: %s round %d: wall %.3f s, cpu %.3f s (raw %.3f s)\n", workload, i+1, rs.wallS, rs.cpuS, rs.rawS)
		wall, cpu, raw = append(wall, rs.wallS), append(cpu, rs.cpuS), append(raw, rs.rawS)
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"wall", wall}, {"cpu", cpu}, {"raw cpu", raw}} {
		q1, q3 := quartiles(m.xs)
		fmt.Fprintf(os.Stderr, "e2ebench: %s round %s: median %.3f s, q1 %.3f q3 %.3f, %d rounds\n", workload, m.name, median(m.xs), q1, q3, len(m.xs))
	}
}
