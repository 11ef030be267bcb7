package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/edaio"
	"skewvar/internal/lut"
	"skewvar/internal/route"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median of their scaled CPU times.
const setupReps = 3

// quickModel is the predictor every workload uses: the same quick ridge
// model skewopt and skewd train when no model bundle is given.
var quickModel = core.TrainConfig{Kind: "ridge", Cases: 12, MovesPerCase: 12, Seed: 1}

// testcase is one generated benchmark design and what re-timing it needs.
type testcase struct {
	name   string
	design *ctree.Design
	doc    []byte            // the design as an edaio document
	cong   *route.Congestion // the generator's congestion field (nil: ideal routes)
}

// env is what set-up produces: the characterized technology, the trained
// predictor and the generated testcases.
type env struct {
	tech  *tech.Tech
	char  *lut.Char
	model *core.MLStageModel
	cases []testcase

	// Component times of this set-up, in seconds.
	trainS, casesS float64
}

// setupEnv characterizes the technology, trains the quick model and builds
// the three testcases at nFFs flip-flops. The testcases are the paper's
// fixed variants, so every seed times the same designs.
func setupEnv(nFFs int) (*env, error) {
	e := &env{tech: tech.Default28nm()}
	e.char = lut.Characterize(e.tech)
	t0 := time.Now()
	m, err := core.TrainStageModel(context.Background(), e.tech, quickModel)
	if err != nil {
		return nil, fmt.Errorf("training the quick model: %w", err)
	}
	e.model = m
	t1 := time.Now()
	for _, v := range testgen.Variants(nFFs) {
		d, tm, err := testgen.Build(e.tech, v)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", v.Name, err)
		}
		var doc bytes.Buffer
		if err := edaio.WriteDesign(&doc, d); err != nil {
			return nil, fmt.Errorf("writing %s: %w", v.Name, err)
		}
		e.cases = append(e.cases, testcase{name: v.Name, design: d, doc: doc.Bytes(), cong: tm.Cong})
	}
	e.trainS = t1.Sub(t0).Seconds()
	e.casesS = time.Since(t1).Seconds()
	return e, nil
}

// setupTimes are the medians of a run's repeated set-ups: the
// host-speed-scaled process CPU time of a whole set-up, its raw CPU time,
// its wall time, and the wall time of its training and testcase
// generation.
type setupTimes struct {
	cpu, raw, wall, train, cases float64
}

// repeatSetup runs setup setupReps times, each an operation of sm,
// keeping the last product, and returns the median times. build is one
// whole set-up (for serve-jobs it includes the server start); release
// frees the product of every repetition but the last.
func repeatSetup[T any](sm *speedMeter, build func() (T, *env, error), release func(T)) (T, setupTimes, error) {
	var cpu, raw, wall, train, cases []float64
	var last T
	for i := 0; i < setupReps; i++ {
		var v T
		var e *env
		t0 := time.Now()
		scaled, r, err := sm.measure(func() (err error) {
			v, e, err = build()
			return err
		})
		if err != nil {
			return last, setupTimes{}, err
		}
		cpu, raw = append(cpu, scaled), append(raw, r)
		wall = append(wall, time.Since(t0).Seconds())
		train = append(train, e.trainS)
		cases = append(cases, e.casesS)
		if i > 0 && release != nil {
			release(last)
		}
		last = v
	}
	return last, setupTimes{cpu: median(cpu), raw: median(raw), wall: median(wall), train: median(train), cases: median(cases)}, nil
}

// readDesign admits a design document the way skewopt -design and skewd do:
// parse it and validate every cell name against the technology.
func readDesign(t *tech.Tech, doc []byte) (*ctree.Design, error) {
	return edaio.ReadDesign(bytes.NewReader(doc), edaio.WithCells(func(name string) bool {
		return t.CellByName(name) != nil
	}))
}

// cpuSeconds is the process's user+system CPU time so far. CPU time
// excludes time stolen by the hypervisor, which wall time includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// The resident set of a traced round is sampled every rssEvery, keeping
// the largest value of each rssWindow; mem.resident_mb is the median of
// the window peaks. The value is memory the Go runtime has mapped minus
// what it has returned to the OS, which for this all-Go process is its
// resident set. It is a per-layer figure, not an end-to-end metric: the
// heap of these small designs is a few MB, and GC and scavenger timing
// moved every resident-set statistic tried by 10–25% between runs.
const (
	rssEvery  = 10 * time.Millisecond
	rssWindow = time.Second
)

// rssSampler collects window peaks of the resident set until stopped.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB; written by the sampler, read after done closes
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	sample := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	var peak float64
	start := time.Now()
	for {
		select {
		case <-s.stop:
			if len(s.peaks) == 0 && peak > 0 {
				s.peaks = append(s.peaks, peak) // a phase shorter than one window
			}
			return
		case now := <-tick.C:
			metrics.Read(sample)
			if v := float64(sample[0].Value.Uint64()-sample[1].Value.Uint64()) / (1 << 20); v > peak {
				peak = v
			}
			if now.Sub(start) >= rssWindow {
				s.peaks = append(s.peaks, peak)
				peak, start = 0, now
			}
		}
	}
}

// medianPeak stops the sampler and returns the median window peak, in MB.
func (s *rssSampler) medianPeak() float64 {
	close(s.stop)
	<-s.done
	return median(s.peaks)
}
