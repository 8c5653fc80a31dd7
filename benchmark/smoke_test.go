package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// smokeOpts runs a workload at a small fraction of its real size: a window
// under a second, a tenth of the warm-up and of the recovery cadence.
var smokeOpts = runOpts{seed: 7, seconds: 800 * time.Millisecond, scale: 0.1, setupRounds: 2}

// TestSmokeEveryWorkload runs every workload end to end, small, and checks
// that the reference check passes and every metric the driver will ask
// for is there. One workload also runs traced, with the layer kernels.
func TestSmokeEveryWorkload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // trace files go to ./out
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		traced := w.name == "recovery_kill" // the one that has every layer to show
		r, err := runWorkload(w, smokeOpts, traced)
		if errors.Is(err, errInvalid) {
			// A loaded test host makes the generator late; the run is then
			// rightly refused, which is not what this test is about.
			t.Logf("%s: %v", w.name, err)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, r.Correct, r.Attempted, r.Failed)
		}
		line := r.line()
		if traced {
			for _, m := range perLayer {
				if _, ok := line.Metrics[m.name]; !ok {
					t.Errorf("%s: traced run lacks %s", w.name, m.name)
				}
			}
			for _, name := range []string{"recovery.time_ms", "checkpoint.pause_ms", "checkpoint.encode_us", "core.dispatch_ns_per_pkt", "op.window.busy_share"} {
				if line.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want a measurement", w.name, name, line.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "out", w.name+".trace.json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
			continue
		}
		for _, m := range endToEnd {
			if !m.universal() {
				continue
			}
			if v, ok := line.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, m.name, v, m.unit)
			}
		}
	}
}

// TestManifestMatchesTables checks BENCHMARK.json, which the driver reads,
// against the tables this program reports from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	var universal []metricDef
	for _, d := range endToEnd {
		if d.universal() {
			universal = append(universal, d)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: bound differs from the program's %v", d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	same("end_to_end", m.EndToEnd, universal, true)
	same("per_layer", m.PerLayer, perLayer, false)
}
