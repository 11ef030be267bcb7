package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// sample is one profile sample: its call stack, leaf first, and the CPU
// time it stands for.
type sample struct {
	frames []string
	cpuNS  int64
}

// readProfile reads a CPU profile file into its samples with
// `go tool pprof -traces`, which prints every sample's stack as text.
func readProfile(path string) ([]sample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTraces(out.String())
}

// parseTraces parses the output of `pprof -traces -unit=ns`. Each sample
// follows a separator line; its first stack line carries the value, the
// rest are indented past the value column. Label lines ("key:  value")
// come between the separator and the stack and are skipped.
func parseTraces(text string) ([]sample, error) {
	const separator = "-----------+"
	const indent = "             " // the value column and the gap after it
	var out []sample
	var cur *sample
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, separator):
			cur = nil
		case strings.HasPrefix(line, indent):
			if cur == nil {
				return nil, fmt.Errorf("pprof traces: frame without a sample value: %q", line)
			}
			cur.frames = append(cur.frames, frameName(line[len(indent):]))
		default:
			value, frame, ok := strings.Cut(strings.TrimLeft(line, " "), "   ")
			ns, err := strconv.ParseFloat(strings.TrimSuffix(value, "ns"), 64)
			if !ok || !strings.HasSuffix(value, "ns") || err != nil {
				continue // the header, or a label line
			}
			out = append(out, sample{frames: []string{frameName(frame)}, cpuNS: int64(ns)})
			cur = &out[len(out)-1]
		}
	}
	return out, sc.Err()
}

func frameName(s string) string { return strings.TrimSuffix(s, " (inline)") }

// Layers, in report order. Each is named after the modules it covers.
var layerNames = []string{"lp", "estimate", "predict", "sta", "eco", "core", "gc", "serve", "journal", "client"}

// gcFramePrefixes mark a sample as garbage-collector work wherever it sits
// on the stack (background marking, mark assists charged to allocating
// code, sweeping, write barriers).
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.wbBuf",
}

// layerRules map functions to layers by name prefix. Walking the stack
// from the leaf, the first frame a rule claims decides; helper packages
// no rule names (route, rctree, tech, geom, lut, edaio, obs, ...) hand the
// sample to their caller, so the RC trees the timer builds count as sta
// and those the stage features build as estimate. The benchmark's own code
// is package main: its admission of design documents is flow glue (core),
// its load generator is client.
var layerRules = []struct{ prefix, layer string }{
	{"skewvar/internal/lp.", "lp"},
	{"skewvar/internal/core.StageFeatures", "estimate"},
	{"skewvar/internal/core.routeToRC", "estimate"},
	{"skewvar/internal/core.DeltaFeatures", "estimate"},
	{"skewvar/internal/ml.", "predict"},
	{"skewvar/internal/core.(*MLStageModel)", "predict"},
	{"skewvar/internal/core.mlView", "predict"},
	{"main.(*timedModel)", "predict"},
	{"skewvar/internal/sta.", "sta"},
	{"skewvar/internal/eco.", "eco"},
	{"skewvar/internal/legalize.", "eco"},
	{"skewvar/internal/ctree.", "eco"},
	{"skewvar/internal/core.", "core"},
	{"main.readDesign", "core"},
	{"main.flowOp", "core"},
	{"skewvar/internal/edaio/atomicio.", "journal"},
	{"skewvar/internal/serve.(*journal)", "journal"},
	{"skewvar/internal/serve.", "serve"},
	{"main.(*client)", "client"},
	{"main.drive", "client"},
	{"main.(*picker)", "client"},
	// HTTP plumbing below no skewvar frame: the server's connection
	// goroutines belong to serve, the load generator's transport to client.
	{"net/http.(*conn)", "serve"},
	{"net/http.(*Server)", "serve"},
	{"net/http.(*persistConn)", "client"},
	{"net/http.(*Transport)", "client"},
}

// layerOf attributes one sample, given its frames leaf first, to a layer,
// or to "" (the residue) when no rule claims it.
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		for _, r := range layerRules {
			if strings.HasPrefix(f, r.prefix) {
				return r.layer
			}
		}
	}
	return ""
}

// attribute sums the samples' CPU seconds per layer; the "" key holds the
// unattributed residue.
func attribute(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.frames)] += float64(s.cpuNS) / 1e9
	}
	return out
}
