package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/lut"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// optimized returns a small generated design, its timer and the tree the
// global flow made of it.
func optimized(t *testing.T) (*ctree.Design, *sta.Timer, *ctree.Tree) {
	t.Helper()
	base := tech.Default28nm()
	d, tm, err := testgen.Build(base, testgen.CLS1v1(60))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunFlows(context.Background(), tm, lut.Characterize(base), d, nil,
		core.FlowConfig{Only: []string{"global"}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Global.SumVarPS >= res.Orig.SumVarPS {
		t.Fatalf("global flow did not improve ΣV (%.3f -> %.3f); the test needs a better tree", res.Orig.SumVarPS, res.Global.SumVarPS)
	}
	return d, tm, res.Trees["global"]
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("got error %v, want one containing %q", err, substr)
	}
}

func TestCheckTree(t *testing.T) {
	d, tm, opt := optimized(t)

	t.Run("optimized tree passes", func(t *testing.T) {
		if _, err := checkTree(tm, d, opt, 0, nan); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wrong reported ΣV", func(t *testing.T) {
		v, err := checkTree(tm, d, opt, 0, nan)
		if err != nil {
			t.Fatal(err)
		}
		_, err = checkTree(tm, d, opt, 0, v+1e-9)
		wantErr(t, err, "differs from the reported")
	})
	t.Run("dropped sink", func(t *testing.T) {
		tr := opt.Clone()
		s := tr.Sinks()[0]
		p := tr.Node(tr.Node(s).Parent)
		for i, c := range p.Children {
			if c == s {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
		tr.Nodes[s] = nil
		if err := tr.Validate(); err != nil {
			t.Fatalf("the mutated tree must stay valid so only the sink check can catch it: %v", err)
		}
		_, err := checkTree(tm, d, tr, 0, nan)
		wantErr(t, err, "is missing from the output")
	})
	t.Run("duplicated sink", func(t *testing.T) {
		tr := opt.Clone()
		s := tr.Node(tr.Sinks()[0])
		dup := tr.AddNode(ctree.KindSink, s.Loc, "", s.Parent)
		dup.Name = s.Name
		_, err := checkTree(tm, d, tr, 0, nan)
		wantErr(t, err, "extra time(s) in the output")
	})
	t.Run("ΣV above the original", func(t *testing.T) {
		// The optimized tree as input and the original as output: the
		// output is valid and keeps every sink, but its ΣV is higher.
		in := d.Clone()
		in.Tree = opt
		_, err := checkTree(tm, in, d.Tree, 0, nan)
		wantErr(t, err, "above the original")
	})
	t.Run("skew above the guard", func(t *testing.T) {
		tr := d.Tree.Clone()
		tr.Node(d.Pairs[0].A).Detour = 3000 // µm of snaking in front of one sink
		_, err := checkTree(tm, d, tr, 0, nan)
		wantErr(t, err, "exceeds the guard")
	})
}

func TestCheckQoRBoundaries(t *testing.T) {
	// sta.SkewGuard(100) = 100 + max(1.5, 2) = 102.
	if err := checkQoR(10, 10, []float64{100}, []float64{102}); err != nil {
		t.Fatalf("ΣV equal to the original and skew at the guard must pass: %v", err)
	}
	wantErr(t, checkQoR(10, 10, []float64{100}, []float64{102.001}), "exceeds the guard")
	wantErr(t, checkQoR(10, 10.001, []float64{100}, []float64{100}), "above the original")
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q, v   float64
		wantOK bool
	}{
		{3, 0.5, 2, false},
		{39, 0.5, 20, false}, // 9.75 samples beyond p75: too few
		{40, 0.75, 30, true},
		{100, 0.9, 90, true},
		{1000, 0.99, 990, true},
	} {
		q, v, ok := tailPercentile(seq(c.n))
		if q != c.q || v != c.v || ok != c.wantOK {
			t.Errorf("n=%d: got (q %g, v %g, ok %v), want (%g, %g, %v)", c.n, q, v, ok, c.q, c.v, c.wantOK)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Fatalf("one value has no quartiles, got %g", q1)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"skewvar/internal/lp.(*solver).updateBinv", "skewvar/internal/lp.(*Problem).Solve", "skewvar/internal/core.GlobalOpt"}, "lp"},
		{[]string{"runtime.memmove", "skewvar/internal/tech.(*Table2D).Lookup", "skewvar/internal/core.StageFeatures", "skewvar/internal/core.(*MoveScorer).Gain"}, "estimate"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "skewvar/internal/lp.(*solver).refactor"}, "gc"},
		{[]string{"skewvar/internal/ml.(*Ridge).Predict", "skewvar/internal/core.(*MLStageModel).PredictDelta", "main.(*timedModel).PredictDelta"}, "predict"},
		{[]string{"skewvar/internal/ctree.(*Tree).Clone", "skewvar/internal/core.LocalOpt"}, "eco"},
		{[]string{"internal/poll.(*FD).Fsync", "skewvar/internal/edaio/atomicio.(*GroupAppender).flush", "skewvar/internal/serve.(*journal).append"}, "journal"},
		{[]string{"encoding/json.(*encodeState).marshal", "skewvar/internal/serve.writeJSON", "net/http.(*conn).serve"}, "serve"},
		{[]string{"net/http.(*persistConn).readLoop"}, "client"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, ""},
		// Route and RC-tree work goes to its caller: the timer's nets are sta,
		// the stage features' estimate.
		{[]string{"skewvar/internal/rctree.(*Flat).Moments", "skewvar/internal/sta.(*Timer).Analyze", "skewvar/internal/core.GlobalOpt"}, "sta"},
		{[]string{"skewvar/internal/route.(*Congestion).Factor", "skewvar/internal/sta.(*Timer).netEval"}, "sta"},
		{[]string{"skewvar/internal/rctree.(*RC).Moments", "skewvar/internal/core.routeToRC", "skewvar/internal/core.StageFeatures"}, "estimate"},
		// The benchmark's admission of a design document is flow glue; only
		// its load generator is client.
		{[]string{"encoding/json.(*decodeState).object", "skewvar/internal/edaio.ReadDesign", "main.readDesign", "main.flowOp"}, "core"},
		{[]string{"skewvar/internal/tech.(*Tech).SubCorners", "main.flowOp", "main.flowRound.func1"}, "core"},
		{[]string{"net/http.(*Client).Do", "main.(*client).do", "main.(*client).run", "main.drive.func1"}, "client"},
		{[]string{"runtime.memmove", "main.lastLines"}, ""},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestReadProfileAttributesRealSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin float64
	for _, s := range samples {
		total += float64(s.cpuNS)
		for _, f := range s.frames {
			if f == "skewvar/e2ebench.spin" || f == "main.spin" {
				inSpin += float64(s.cpuNS)
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("%d samples, %.0f of %.0f ns in spin; want most of them", len(samples), inSpin, total)
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: e2ebench
Type: cpu
Duration: 1.2s, Total samples = 30000000ns (2.50%)
-----------+-------------------------------------------------------
  10000000ns   skewvar/internal/rctree.(*Flat).Moments (inline)
             skewvar/internal/sta.(*Timer).Analyze
             main.flowRound
-----------+-------------------------------------------------------
    tenant:  a b
20000000ns   runtime.futex
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{[]string{"skewvar/internal/rctree.(*Flat).Moments", "skewvar/internal/sta.(*Timer).Analyze", "main.flowRound"}, 10000000},
		{[]string{"runtime.futex"}, 20000000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTraces = %v, want %v", got, want)
	}
}
