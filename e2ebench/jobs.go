package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/obs"
	"skewvar/internal/serve"
	"skewvar/internal/sta"
)

// Scale of the serve-jobs workload: small jobs, so admission, journal
// fsyncs, checkpoint writes and queueing are a visible share of a job.
const (
	jobFFs     = 40
	jobPairs   = 40
	jobIters   = 2
	pollEvery  = 5 * time.Millisecond
	reqTimeout = 60 * time.Second
)

// jobFlows are the flows of the job pool; with the three testcases they
// make the pool every round submits once.
var jobFlows = []string{"global", "local"}

// jobSpec is one distinct job of the pool.
type jobSpec struct {
	name string
	tc   int
	flow string
	body []byte // the POST /jobs request
}

// jobsEnv is a started server with its set-up.
type jobsEnv struct {
	*env
	specs []jobSpec
	srv   *serve.Server
	url   string
	spool string
	model *timedModel
}

func (j *jobsEnv) stop() {
	j.srv.Drain()
	<-j.srv.AcceptErr()
}

// startJobsEnv runs the serve-jobs set-up: the common set-up at job scale,
// the job pool, and an in-process skewd with nproc workers on loopback.
func startJobsEnv(workDir string, n int) (*jobsEnv, *env, error) {
	e, err := setupEnv(jobFFs)
	if err != nil {
		return nil, nil, err
	}
	j := &jobsEnv{env: e, spool: filepath.Join(workDir, fmt.Sprintf("spool-%d", n)), model: &timedModel{m: e.model}}
	for i, tc := range e.cases {
		for _, flow := range jobFlows {
			body, err := json.Marshal(serve.JobRequest{
				Design: tc.doc, Flow: flow, Pairs: jobPairs, Iters: jobIters, Workers: 1,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("encoding a job: %w", err)
			}
			j.specs = append(j.specs, jobSpec{name: tc.name + "/" + flow, tc: i, flow: flow, body: body})
		}
	}
	j.srv, err = serve.New(serve.Config{
		SpoolDir: j.spool,
		Workers:  runtime.NumCPU(),
		Tech:     e.tech,
		Char:     e.char,
		Model:    j.model,
		Obs:      obs.New(),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("starting skewd: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listening on loopback: %w", err)
	}
	j.srv.Start(ln)
	j.url = "http://" + ln.Addr().String()
	return j, e, nil
}

// servedJob is what a client saw of one job.
type servedJob struct {
	spec   int
	id     string
	admitS float64 // POST /jobs until the 202
	latS   float64 // POST /jobs until the result is read
	polls  int
	result []byte
	err    error
}

// picker hands out one round of jobs: the pool in a seeded order.
type picker struct {
	mu    sync.Mutex
	order []int
	next  int
}

func newRound(rng *rand.Rand, pool int) *picker { return &picker{order: rng.Perm(pool)} }

func (p *picker) take() (k, spec int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next == len(p.order) {
		return 0, 0, false
	}
	k = p.next
	p.next++
	return k, p.order[k], true
}

// client drives one closed loop of submit, poll, fetch over HTTP.
type client struct {
	url  string
	http *http.Client
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run submits one job, polls its status until it is done and fetches its
// result.
func (c *client) run(spec int, body []byte) servedJob {
	s := servedJob{spec: spec}
	t0 := time.Now()
	code, b, err := c.do(http.MethodPost, "/jobs", body)
	s.admitS = time.Since(t0).Seconds()
	if err != nil || code != http.StatusAccepted {
		s.err = fmt.Errorf("submit: status %d: %v %s", code, err, b)
		return s
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(b, &ack); err != nil || ack.ID == "" {
		s.err = fmt.Errorf("submit: bad acknowledgement %q: %v", b, err)
		return s
	}
	s.id = ack.ID
	for {
		code, b, err := c.do(http.MethodGet, "/jobs/"+s.id, nil)
		s.polls++
		if err != nil || code != http.StatusOK {
			s.err = fmt.Errorf("status of %s: status %d: %v %s", s.id, code, err, b)
			return s
		}
		var st serve.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			s.err = fmt.Errorf("status of %s: %v", s.id, err)
			return s
		}
		if st.State == serve.StateDone {
			break
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			s.err = fmt.Errorf("job %s ended %s: %s", s.id, st.State, st.Error)
			return s
		}
		time.Sleep(pollEvery)
	}
	code, b, err = c.do(http.MethodGet, "/jobs/"+s.id+"/result", nil)
	s.latS = time.Since(t0).Seconds()
	if err != nil || code != http.StatusOK {
		s.err = fmt.Errorf("result of %s: status %d: %v", s.id, code, err)
		return s
	}
	s.result = b
	return s
}

// drive runs nproc closed-loop clients until the picker stops and returns
// every job in issue order, with the times of the phase, which is one
// operation of sm (nil: unscaled, with no calibration).
func drive(j *jobsEnv, c *client, p *picker, sm *speedMeter) ([]servedJob, roundStats) {
	var out []servedJob
	var wallS float64
	scaled, raw, _ := sm.measure(func() error {
		t0 := time.Now()
		out = driveRound(j, c, p)
		wallS = time.Since(t0).Seconds()
		return nil
	})
	return out, roundStats{wallS: wallS, cpuS: scaled, rawS: raw}
}

// driveRound runs the clients of one round.
func driveRound(j *jobsEnv, c *client, p *picker) []servedJob {
	var mu sync.Mutex
	got := map[int]servedJob{}
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, spec, ok := p.take()
				if !ok {
					return
				}
				s := c.run(spec, j.specs[spec].body)
				mu.Lock()
				got[k] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out := make([]servedJob, len(got))
	for k, s := range got {
		out[k] = s
	}
	return out
}

// refResult is the in-process run of one job spec and its checked ΣV.
type refResult struct {
	doc    []byte
	sumVar float64
	in     *ctree.Design
}

// reference runs a job spec in process exactly as a skewd worker runs it,
// and checks the result.
func (j *jobsEnv) reference(s jobSpec) (refResult, error) {
	var req serve.JobRequest
	if err := json.Unmarshal(s.body, &req); err != nil {
		return refResult{}, err
	}
	d, err := readDesign(j.tech, req.Design)
	if err != nil {
		return refResult{}, err
	}
	view, err := j.tech.SubCorners(d.CornerNames...)
	if err != nil {
		return refResult{}, err
	}
	res, err := core.RunFlows(context.Background(), sta.New(view), j.char, d, j.model.m, core.FlowConfig{
		TopPairs: req.Pairs,
		Global:   core.GlobalConfig{MaxPairsPerLP: req.Pairs},
		Local:    core.LocalConfig{MaxIters: req.Iters},
		Only:     []string{req.Flow},
		Workers:  req.Workers,
	})
	if err != nil {
		return refResult{}, fmt.Errorf("in-process %s: %w", s.name, err)
	}
	tr, reported := flowTree(res, req.Flow)
	doc, err := writeDesign(d, tr)
	if err != nil {
		return refResult{}, err
	}
	sumVar, err := checkOutput(view, nil, d, req.Pairs, doc, reported)
	if err != nil {
		return refResult{}, fmt.Errorf("in-process %s: %w", s.name, err)
	}
	return refResult{doc: doc, sumVar: sumVar, in: d}, nil
}

// checkJobs checks every served job: it was acknowledged, ended done in
// the journal, and returned a result byte-identical to the in-process run
// of its spec (which itself passed the output checks). It returns the
// number of failed jobs and the pool's summed ΣV.
func (j *jobsEnv) checkJobs(jobs []servedJob) (int, float64, error) {
	refs := make([]refResult, len(j.specs))
	refErr := make([]error, len(j.specs))
	var sumVar float64
	for i, s := range j.specs {
		refs[i], refErr[i] = j.reference(s)
		sumVar += refs[i].sumVar
	}
	journal, err := serve.ReadJournalJobs(j.spool)
	if err != nil {
		return 0, 0, fmt.Errorf("reading the journal: %w", err)
	}
	state := map[string]string{}
	for _, jj := range journal {
		state[jj.ID] = jj.State
	}
	failed := 0
	for _, s := range jobs {
		err := s.err
		switch {
		case err != nil:
		case refErr[s.spec] != nil:
			err = refErr[s.spec]
		case state[s.id] != serve.StateDone:
			err = fmt.Errorf("job %s is %q in the journal, want done", s.id, state[s.id])
		case !bytes.Equal(s.result, refs[s.spec].doc):
			_, cerr := checkOutput(j.tech, nil, refs[s.spec].in, jobPairs, s.result, nan)
			err = fmt.Errorf("job %s result differs from the in-process run (own checks: %v)", s.id, cerr)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: serve-jobs %s: check failed: %v\n", j.specs[s.spec].name, err)
		}
	}
	return failed, sumVar, nil
}

// runServeJobs measures skewd under a closed loop of nproc clients over
// loopback HTTP.
func runServeJobs(opts runOpts) (*result, error) {
	sm := &speedMeter{}
	n := 0
	j, st, err := repeatSetup(sm, func() (*jobsEnv, *env, error) {
		n++
		return startJobsEnv(opts.workDir, n)
	}, func(old *jobsEnv) { old.stop() })
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	defer tr.CloseIdleConnections()
	c := &client{url: j.url, http: &http.Client{Transport: tr}}
	rng := rand.New(rand.NewSource(opts.seed))

	// A round is the pool in a seeded order, driven to its end by the
	// clients; rounds repeat until the measured phase has lasted
	// opts.seconds.
	var jobs []servedJob
	var rounds []roundStats
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < opts.seconds {
		js, rs := drive(j, c, newRound(rng, len(j.specs)), sm)
		jobs = append(jobs, js...)
		rounds = append(rounds, rs)
	}

	var lat []float64
	for _, s := range jobs {
		if s.err == nil {
			lat = append(lat, s.latS)
		}
	}
	reportJobTimes(j, jobs, lat)
	reportRounds("serve-jobs", rounds)

	var traced *layerReport
	if opts.trace {
		var tjobs []servedJob
		traced, tjobs, err = j.traceRound(c, rng)
		if err != nil {
			j.stop()
			return nil, err
		}
		var tlat []float64
		for _, s := range tjobs {
			tlat = append(tlat, s.latS)
		}
		traced.overheadS = median(tlat) - median(lat)
		jobs = append(jobs, tjobs...)
	}
	j.stop()

	failed, sumVar, err := j.checkJobs(jobs)
	if err != nil {
		return nil, err
	}
	// As for the flows, wall times go to the traced run only, taken from
	// the fastest round and each spec's fastest job.
	var wall, cpu, raw []float64
	for _, rs := range rounds {
		wall = append(wall, rs.wallS)
		cpu = append(cpu, rs.cpuS)
		raw = append(raw, rs.rawS)
	}
	perSpec := map[int][]float64{}
	for _, s := range jobs[:len(rounds)*len(j.specs)] {
		if s.err == nil {
			perSpec[s.spec] = append(perSpec[s.spec], s.latS*1000)
		}
	}
	var jobMS []float64
	for _, ms := range perSpec {
		jobMS = append(jobMS, minimum(ms))
	}
	res := &result{Correct: failed == 0, Attempted: len(jobs), Failed: failed}
	if !opts.trace {
		res.Metrics = map[string]metric{
			"setup_s":   {st.cpu, "s"},
			"cpu_s":     {median(cpu), "s"},
			"sumvar_ps": {sumVar, "ps"},
		}
		return res, nil
	}
	traced.setup = st
	traced.counts["cpu.raw_s"] = median(raw)
	traced.counts["host.speed"] = sm.speed()
	traced.counts["wall.flow_s"] = minimum(wall)
	traced.counts["wall.jobs_per_s"] = float64(len(j.specs)) / minimum(wall)
	traced.counts["wall.job_p50_ms"] = median(jobMS)
	res.Metrics = traced.metrics()
	traced.print(os.Stderr, "serve-jobs")
	return res, nil
}

// reportJobTimes prints per-spec job latencies and the latency tail to
// standard error as reference figures; they are not metrics.
func reportJobTimes(j *jobsEnv, jobs []servedJob, lat []float64) {
	per := map[int][]float64{}
	for _, s := range jobs {
		if s.err == nil {
			per[s.spec] = append(per[s.spec], s.latS)
		}
	}
	for i, s := range j.specs {
		fmt.Fprintf(os.Stderr, "e2ebench: serve-jobs %s: median %.1f ms over %d jobs\n", s.name, 1000*median(per[i]), len(per[i]))
	}
	q, v, ok := tailPercentile(lat)
	if ok {
		fmt.Fprintf(os.Stderr, "e2ebench: serve-jobs latency: p50 %.1f ms, p%g %.1f ms over %d jobs\n", 1000*median(lat), 100*q, 1000*v, len(lat))
	} else {
		fmt.Fprintf(os.Stderr, "e2ebench: serve-jobs latency: p50 %.1f ms over %d jobs (too few for a tail)\n", 1000*v, len(lat))
	}
}

// scrape reads the server's /metrics.
func (c *client) scrape() (obs.Snapshot, error) {
	var s obs.Snapshot
	code, b, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	return s, json.Unmarshal(b, &s)
}

// traceRound runs one round of the pool with the model timed, the CPU
// profiler on and /metrics scraped around it; the per-job metrics and
// traces skewd writes to its spool give the flow counts.
func (j *jobsEnv) traceRound(c *client, rng *rand.Rand) (*layerReport, []servedJob, error) {
	before, err := c.scrape()
	if err != nil {
		return nil, nil, err
	}
	j.model.on.Store(true)
	defer j.model.on.Store(false)
	runtime.GC()
	r := &layerReport{counts: map[string]float64{}}
	g := startGC()
	rss := startRSS()
	var jobs []servedJob
	r.cpuS, err = profiled(filepath.Dir(j.spool), func() error {
		var rs roundStats
		jobs, rs = drive(j, c, newRound(rng, len(j.specs)), nil)
		r.wallS = rs.wallS
		return nil
	})
	r.counts["mem.resident_mb"] = rss.medianPeak()
	if err != nil {
		return nil, nil, err
	}
	g.record(r.counts)
	after, err := c.scrape()
	if err != nil {
		return nil, nil, err
	}
	nJobs := float64(len(jobs))
	hist := func(name string) obs.HistSnapshot {
		a, b := after.Histograms[name], before.Histograms[name]
		return obs.HistSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	}
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }

	runS := float64(hist("serve.job.duration_ns").Sum) / 1e9
	var latS float64
	var admitMS []float64
	flows := map[string]int64{}
	var recs []obs.Record
	for _, s := range jobs {
		latS += s.latS
		admitMS = append(admitMS, 1000*s.admitS)
		r.counts["serve.poll_requests"] += float64(s.polls)
		if s.id == "" {
			continue
		}
		if m, err := readJobMetrics(serve.SpoolArtifact(j.spool, s.id, "metrics.json")); err == nil {
			for k, v := range m.Counters {
				flows[k] += v
			}
		}
		if f, err := os.Open(serve.SpoolArtifact(j.spool, s.id, "trace.jsonl")); err == nil {
			tr, err := obs.ReadTrace(f)
			f.Close()
			if err == nil {
				recs = append(recs, tr...)
			}
		}
	}
	flowCounts(r.counts, flows)
	r.counts["admit.p50_ms"] = median(admitMS)
	r.counts["lp.wasted_iterations"] = lpWaste(recs)
	r.counts["serve.run_s"] = runS
	r.counts["serve.queue_wait_s"] = latS - runS
	r.counts["journal.fsyncs_per_job"] = counter("serve.journal.fsyncs") / nJobs
	if b := hist("serve.journal.batch_lines"); b.Count > 0 {
		r.counts["journal.batch_lines"] = float64(b.Sum) / float64(b.Count)
	}
	if hits, misses := counter("serve.sta.net_cache.hits"), counter("serve.sta.net_cache.misses"); hits+misses > 0 {
		r.counts["sta.net_cache.hit_rate"] = hits / (hits + misses)
	}
	r.counts["predict.calls"] = float64(j.model.calls.Load())
	r.counts["predict.timed_s"] = float64(j.model.ns.Load()) / 1e9
	return r, jobs, nil
}

func readJobMetrics(path string) (obs.Snapshot, error) {
	var s obs.Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}
