// Command perfbench is flexio's benchmark: one single-process, closed-loop
// program with one collective call in flight, over three seeded workloads.
//
// An untraced run (-trace 0) reports the end-to-end metrics: the paper's
// simulated bandwidth and the simulator's own cost. A traced run (-trace 1)
// reports the per-layer split of that cost. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage:
//
//	perfbench -workload hpio-write -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo records the conditions of a run; it is printed before the
// result line.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	FailFrac   float64 `json:"fail_frac"`
	FirstError string  `json:"first_error,omitempty"`
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func main() {
	name := flag.String("workload", "", "workload: hpio-write, hpio-read-fresh or ckpt-integrity")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()

	wl, err := workloadByName(*name)
	if err == nil && (*traced < 0 || *traced > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be positive, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	budget := time.Duration(*seconds) * time.Second
	defs := endToEnd
	var o *outcome
	if *traced == 1 {
		defs = perLayer
		o, err = runPerLayer(wl, *seed, budget)
	} else {
		o, err = runEndToEnd(wl, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	info := runInfo{
		Workload: wl.name, Seed: *seed, Seconds: *seconds, Traced: *traced == 1,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit(), FailFrac: float64(o.failed) / float64(o.attempted),
	}
	if o.firstErr != nil {
		info.FirstError = o.firstErr.Error()
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]runInfo{"info": info}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
