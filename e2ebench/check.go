package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"

	"skewvar/internal/ctree"
	"skewvar/internal/edaio"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// The checks below test properties every optimized tree must have, never
// a saved copy of an earlier output:
//   - the tree passes Validate and keeps the original sink set;
//   - re-read through edaio and re-timed by a fresh timer, it gives exactly
//     the ΣV the flow reported (when the flow reported one);
//   - that ΣV is at most the original's;
//   - no corner's max |skew| exceeds sta.SkewGuard of the original's.

// nan marks a ΣV the producer did not report.
var nan = math.NaN()

// checkOutput re-reads out, the written output design, and checks it
// against in, the design the flow was given. view is the technology view
// the design is timed in and cong the congestion field of its timer (nil
// for designs that came in as documents). reported is the ΣV the flow
// reported, or NaN when it reported none. It returns the output's ΣV.
func checkOutput(view *tech.Tech, cong *route.Congestion, in *ctree.Design, topPairs int, out []byte, reported float64) (float64, error) {
	od, err := readDesign(view, out)
	if err != nil {
		return 0, fmt.Errorf("re-reading the output design: %w", err)
	}
	tm := sta.New(view)
	tm.Cong = cong
	return checkTree(tm, in, od.Tree, topPairs, reported)
}

// checkTree checks final against the input design in, timing both with tm,
// and returns final's ΣV. Every violated property is reported.
func checkTree(tm *sta.Timer, in *ctree.Design, final *ctree.Tree, topPairs int, reported float64) (float64, error) {
	if err := final.Validate(); err != nil {
		return 0, fmt.Errorf("output tree is invalid: %w", err)
	}
	var errs []error
	if err := sameSinks(in.Tree, final); err != nil {
		errs = append(errs, err)
	}
	pairs := in.TopPairs(topPairs)
	a0 := tm.Analyze(in.Tree)
	alphas := sta.Alphas(a0, pairs)
	a1 := tm.Analyze(final)
	sumVar := sta.SumVariation(a1, alphas, pairs)
	if !math.IsNaN(reported) && sumVar != reported {
		errs = append(errs, fmt.Errorf("re-timed ΣV %.6f ps differs from the reported %.6f ps", sumVar, reported))
	}
	skew0 := make([]float64, a0.K)
	skew1 := make([]float64, a0.K)
	for k := range skew0 {
		skew0[k] = sta.MaxAbsSkew(a0, k, pairs)
		skew1[k] = sta.MaxAbsSkew(a1, k, pairs)
	}
	if err := checkQoR(sta.SumVariation(a0, alphas, pairs), sumVar, skew0, skew1); err != nil {
		errs = append(errs, err)
	}
	return sumVar, errors.Join(errs...)
}

// checkQoR holds the optimizer to its contract: ΣV no worse than the
// original, and every corner's max |skew| within sta.SkewGuard of the
// original's.
func checkQoR(orig, final float64, skew0, skew1 []float64) error {
	var errs []error
	if final > orig {
		errs = append(errs, fmt.Errorf("ΣV %.3f ps is above the original %.3f ps", final, orig))
	}
	for k := range skew0 {
		if g := sta.SkewGuard(skew0[k]); skew1[k] > g {
			errs = append(errs, fmt.Errorf("corner %d max |skew| %.3f ps exceeds the guard %.3f ps (original %.3f ps)",
				k, skew1[k], g, skew0[k]))
		}
	}
	return errors.Join(errs...)
}

// sinkKey identifies a sink: flip-flops keep their names and locations
// through every optimization move.
type sinkKey struct {
	name string
	x, y float64
}

func sinkKeys(t *ctree.Tree) []sinkKey {
	var out []sinkKey
	for _, id := range t.Sinks() {
		n := t.Node(id)
		out = append(out, sinkKey{n.Name, n.Loc.X, n.Loc.Y})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.x != b.x {
			return a.x < b.x
		}
		return a.y < b.y
	})
	return out
}

// sameSinks reports a sink that final dropped, duplicated or added.
func sameSinks(orig, final *ctree.Tree) error {
	count := map[sinkKey]int{}
	for _, k := range sinkKeys(orig) {
		count[k]++
	}
	for _, k := range sinkKeys(final) {
		count[k]--
	}
	var errs []error
	for _, k := range sinkKeys(orig) {
		if n := count[k]; n > 0 {
			errs = append(errs, fmt.Errorf("sink %s at (%g,%g) is missing from the output", k.name, k.x, k.y))
		} else if n < 0 {
			errs = append(errs, fmt.Errorf("sink %s at (%g,%g) appears %d extra time(s) in the output", k.name, k.x, k.y, -n))
		}
		count[k] = 0
	}
	for _, k := range sinkKeys(final) {
		if count[k] < 0 {
			errs = append(errs, fmt.Errorf("output has a sink %s at (%g,%g) the input lacks", k.name, k.x, k.y))
			count[k] = 0
		}
	}
	return errors.Join(errs...)
}

// writeDesign renders d with its tree replaced by tr, as skewd writes a
// job's result.
func writeDesign(d *ctree.Design, tr *ctree.Tree) ([]byte, error) {
	od := d.Clone()
	od.Tree = tr
	var b bytes.Buffer
	if err := edaio.WriteDesign(&b, od); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
