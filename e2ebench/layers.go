package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/obs"
)

// timedModel wraps a StageModel and times every PredictDelta call while
// on is set. The serve-jobs server holds one for its whole life, so
// switching it on times one round without restarting the server.
type timedModel struct {
	m     core.StageModel
	on    atomic.Bool
	calls atomic.Int64
	ns    atomic.Int64
}

// PredictDelta implements core.StageModel.
func (t *timedModel) PredictDelta(k int, feats []float64) float64 {
	if !t.on.Load() {
		return t.m.PredictDelta(k, feats)
	}
	t0 := time.Now()
	v := t.m.PredictDelta(k, feats)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	return v
}

// Name implements core.StageModel.
func (t *timedModel) Name() string { return t.m.Name() }

// layerReport is the per-layer breakdown of one traced round.
type layerReport struct {
	wallS     float64            // traced wall time
	overheadS float64            // traced time minus the untraced median
	cpuS      map[string]float64 // profile CPU seconds per layer; "" = unattributed
	counts    map[string]float64 // per-layer counts and ratios, by metric name
	setup     setupTimes

	outcomes []flowOutcome // the traced round's flows (flow workloads)
}

// rows apportions the traced wall time to the layers in proportion to
// their share of the profile's CPU samples, so the rows and residue_s sum
// to the wall time. The residue is the share of samples no layer claims
// (scheduler, syscalls, idle-loop work outside skewvar code).
func (r *layerReport) rows() (map[string]float64, float64) {
	var total float64
	for _, v := range r.cpuS {
		total += v
	}
	rows := map[string]float64{}
	if total == 0 {
		return rows, r.wallS
	}
	for _, l := range layerNames {
		rows[l] = r.wallS * r.cpuS[l] / total
	}
	return rows, r.wallS * r.cpuS[""] / total
}

// perLayerMetrics lists every per-layer metric with its unit, in report
// order. Every workload reports all of them; a layer a workload does not
// exercise reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"lp.self_s", "s"}, {"lp.iterations", "count"}, {"lp.solves", "count"}, {"lp.wasted_iterations", "count"},
	{"estimate.self_s", "s"},
	{"predict.self_s", "s"}, {"predict.calls", "count"}, {"predict.timed_s", "s"},
	{"sta.self_s", "s"}, {"sta.analyses", "count"}, {"sta.analyses_incremental", "count"}, {"sta.net_cache.hit_rate", "ratio"},
	{"eco.self_s", "s"},
	{"core.self_s", "s"},
	{"local.moves.predicted", "count"}, {"local.moves.tried", "count"}, {"local.accept_rate", "ratio"},
	{"gc.self_s", "s"}, {"gc.alloc_mb", "MB"}, {"gc.cycles", "count"}, {"mem.resident_mb", "MB"},
	{"setup.wall_s", "s"}, {"setup.train_s", "s"}, {"setup.testcases_s", "s"},
	{"serve.self_s", "s"}, {"serve.run_s", "s"}, {"serve.queue_wait_s", "s"}, {"serve.poll_requests", "count"},
	{"journal.self_s", "s"}, {"journal.fsyncs_per_job", "count"}, {"journal.batch_lines", "count"}, {"admit.p50_ms", "ms"},
	{"client.self_s", "s"},
	{"residue_s", "s"}, {"trace.wall_s", "s"}, {"trace.overhead_s", "s"},
	{"wall.flow_s", "s"}, {"wall.jobs_per_s", "1/s"}, {"wall.job_p50_ms", "ms"},
	{"cpu.raw_s", "s"}, {"setup.raw_s", "s"}, {"host.speed", "ratio"},
}

// metrics renders the report as the --trace 1 result metrics.
func (r *layerReport) metrics() map[string]metric {
	rows, residue := r.rows()
	vals := map[string]float64{
		"residue_s":         residue,
		"trace.wall_s":      r.wallS,
		"trace.overhead_s":  r.overheadS,
		"setup.wall_s":      r.setup.wall,
		"setup.raw_s":       r.setup.raw,
		"setup.train_s":     r.setup.train,
		"setup.testcases_s": r.setup.cases,
	}
	for l, v := range rows {
		vals[l+".self_s"] = v
	}
	for k, v := range r.counts {
		vals[k] = v
	}
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// print writes the breakdown as a table: one row per layer with its
// share of the traced wall time and the profile's CPU seconds, then the
// counts.
func (r *layerReport) print(w io.Writer, workload string) {
	rows, residue := r.rows()
	fmt.Fprintf(w, "e2ebench: %s traced round: wall %.3f s, tracing overhead %+.3f s\n", workload, r.wallS, r.overheadS)
	fmt.Fprintf(w, "  %-10s %10s %7s %10s\n", "layer", "self_s", "share", "cpu_s")
	sum := residue
	for _, l := range layerNames {
		sum += rows[l]
		fmt.Fprintf(w, "  %-10s %10.3f %6.1f%% %10.3f\n", l, rows[l], 100*rows[l]/r.wallS, r.cpuS[l])
	}
	fmt.Fprintf(w, "  %-10s %10.3f %6.1f%% %10.3f\n", "residue", residue, 100*residue/r.wallS, r.cpuS[""])
	fmt.Fprintf(w, "  %-10s %10.3f (traced wall %.3f s)\n", "sum", sum, r.wallS)
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-26s %.6g\n", k, r.counts[k])
	}
}

// profiled runs fn under the CPU profiler, writing the profile to dir,
// and attributes the samples.
func profiled(dir string, fn func() error) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating the CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	samples, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	return attribute(samples), nil
}

// gcDelta measures allocation and collection around a traced round.
type gcDelta struct{ before runtime.MemStats }

func startGC() *gcDelta {
	g := &gcDelta{}
	runtime.ReadMemStats(&g.before)
	return g
}

func (g *gcDelta) record(counts map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	counts["gc.alloc_mb"] = float64(after.TotalAlloc-g.before.TotalAlloc) / (1 << 20)
	counts["gc.cycles"] = float64(after.NumGC - g.before.NumGC)
}

// lpWaste sums the iterations of LP solves whose lp.solve event reports an
// infeasible status or a reverted block.
func lpWaste(recs []obs.Record) float64 {
	var wasted float64
	for _, rec := range recs {
		if rec.Kind != obs.KindEvent || rec.Name != "lp.solve" {
			continue
		}
		var iters float64
		bad := false
		for _, a := range rec.Attrs {
			switch {
			case a.Key == "iters":
				iters = a.Num
			case a.Key == "status" && a.Str == "infeasible", a.Key == "reverted" && a.Str == "yes":
				bad = true
			}
		}
		if bad {
			wasted += iters
		}
	}
	return wasted
}

// flowCounts copies the per-layer counts out of flow recorder counters
// (summed over every flow of the round).
func flowCounts(counts map[string]float64, c map[string]int64) {
	for _, k := range []string{"lp.iterations", "lp.solves", "sta.analyses", "sta.analyses_incremental",
		"local.moves.predicted", "local.moves.tried"} {
		counts[k] = float64(c[k])
	}
	if t := c["local.moves.tried"]; t > 0 {
		counts["local.accept_rate"] = float64(c["local.moves.accepted"]) / float64(t)
	}
}

// traceFlowRound runs one more round with an obs.Recorder attached, the
// model timed and the CPU profiler on; the profile goes to dir.
func traceFlowRound(e *env, flow string, order []int, dir string) (*layerReport, error) {
	rec := obs.New()
	model := &timedModel{m: e.model}
	model.on.Store(true)
	runtime.GC()
	r := &layerReport{counts: map[string]float64{}}
	g := startGC()
	rss := startRSS()
	var err error
	r.cpuS, err = profiled(dir, func() error {
		var rs roundStats
		r.outcomes, rs, err = flowRound(e, flow, order, 1, model, rec, nil)
		r.wallS = rs.wallS
		return err
	})
	r.counts["mem.resident_mb"] = rss.medianPeak()
	if err != nil {
		return nil, err
	}
	g.record(r.counts)
	var admitMS []float64
	for _, o := range r.outcomes {
		admitMS = append(admitMS, 1000*o.admitS)
	}
	r.counts["admit.p50_ms"] = median(admitMS)
	flowCounts(r.counts, rec.Snapshot().Counters)
	r.counts["lp.wasted_iterations"] = lpWaste(rec.Records())
	r.counts["predict.calls"] = float64(model.calls.Load())
	r.counts["predict.timed_s"] = float64(model.ns.Load()) / 1e9
	var hits, misses int64
	for _, o := range r.outcomes {
		hits += o.cache.Hits
		misses += o.cache.Misses
	}
	if hits+misses > 0 {
		r.counts["sta.net_cache.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	return r, nil
}
