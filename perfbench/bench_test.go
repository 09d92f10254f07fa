package main

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
)

// reduced is wl with a short counts pass, for the self-checks.
func reduced(wl *workload) *workload {
	r := *wl
	r.counted = 4
	return &r
}

// countMetrics runs the counts pass and keeps the per-layer metrics that
// are counts (unit count or B).
func countMetrics(t *testing.T, wl *workload, seed int64) map[string]float64 {
	t.Helper()
	o := &outcome{metrics: map[string]float64{}}
	if _, err := runCounts(wl, seed, 0, o); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%s: %d of %d calls failed: %v", wl.name, o.failed, o.attempted, o.firstErr)
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		if d.unit == "count" || d.unit == "B" {
			if v, ok := o.metrics[d.name]; ok {
				out[d.name] = v
			}
		}
	}
	return out
}

func checkCountsRepeat(t *testing.T) {
	for _, wl := range workloads {
		wl := reduced(wl)
		a, b := countMetrics(t, wl, 7), countMetrics(t, wl, 7)
		for name, va := range a {
			if vb := b[name]; va != vb {
				t.Errorf("%s: %s = %v then %v on the same seed", wl.name, name, va, vb)
			}
		}
	}
}

// TestCountsRepeatSerial checks that the benchmark's inputs, and so every
// count, are a deterministic function of workload and seed when the
// simulation runs on one OS thread. The race detector perturbs goroutine
// scheduling even then, so under -race it shows the same pfs arrival-order
// dependence as TestCountsRepeat.
func TestCountsRepeatSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	checkCountsRepeat(t)
}

// TestCountsRepeat is the same check at the process's GOMAXPROCS, as the
// benchmark runs. The pfs commits lock, stripe-writer and cache state in
// goroutine arrival order (ROADMAP item 1), so pfs.stripe_conflicts_per_op
// (hpio-write) and pfs.lock_grants_per_op (hpio-read-fresh) can differ
// between same-seed runs until that is fixed.
func TestCountsRepeat(t *testing.T) {
	checkCountsRepeat(t)
}

// readViews returns the disp and file segments of every rank's view for
// the first calls of hpio-read-fresh under seed.
func readViews(seed int64) [][]rankIO {
	in := newReadFresh(seed, 16, readFileSize)
	var out [][]rankIO
	for c := 0; c < 2*numShapes; c++ {
		rk := make([]rankIO, 16)
		in.views(c, rk)
		out = append(out, rk)
	}
	return out
}

func sameViews(a, b []rankIO) bool {
	for r := range a {
		if a[r].disp != b[r].disp || !slices.Equal(a[r].segs, b[r].segs) {
			return false
		}
	}
	return true
}

func TestSeedChangesReadViews(t *testing.T) {
	one, again, two := readViews(1), readViews(1), readViews(2)
	for c := range one {
		if !sameViews(one[c], again[c]) {
			t.Errorf("call %d: seed 1 gave two different views", c)
		}
		if sameViews(one[c], two[c]) {
			t.Errorf("call %d: seeds 1 and 2 gave the same view", c)
		}
	}
}

func TestTracedRun(t *testing.T) {
	for _, wl := range workloads {
		o := &outcome{metrics: map[string]float64{}}
		if _, err := runTraced(wl, 3, 0, o); err != nil {
			t.Fatal(err)
		}
		m := o.metrics
		if o.failed != 0 {
			t.Errorf("%s: %d of %d traced calls failed: %v", wl.name, o.failed, o.attempted, o.firstErr)
		}
		if m["telemetry.trace_dropped"] != 0 {
			t.Errorf("%s: trace ring dropped %v events", wl.name, m["telemetry.trace_dropped"])
		}
		if c := m["telemetry.critpath_cover"]; c < 0.99 {
			t.Errorf("%s: critical path covers %.4f of the window, want >= 0.99", wl.name, c)
		}
		var sum float64
		for _, l := range cpuLayers {
			sum += m[l+".cpu_frac"]
		}
		if sum != 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("%s: cpu_frac sums to %v, want 1", wl.name, sum)
		}
		if !wl.integrity && m["integrity.cpu_frac"] != 0 {
			t.Errorf("%s: integrity.cpu_frac = %v without the checksummed datapath", wl.name, m["integrity.cpu_frac"])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's workload
// and metric tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
