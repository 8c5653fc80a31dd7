package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// reported is one metric in a result file: its value with everything
// needed to read it without this program's tables.
type reported struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// result is what one run of one workload produced. It is the schema of
// the files under benchmark/out and of the entries compare reads.
type result struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Host     hostFacts `json:"host"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// Samples states how many observations stand behind the metrics that
	// are medians or percentiles.
	Samples map[string]int64 `json:"samples"`
	// EndToEnd holds the untraced pass; PerLayer the traced pass, the
	// counters read after it and the layer kernels (traced runs only).
	EndToEnd map[string]reported `json:"end_to_end"`
	PerLayer map[string]reported `json:"per_layer,omitempty"`
	// Series are per-second or per-event observations behind a metric,
	// kept so compare can test a difference instead of eyeballing it.
	Series map[string][]float64 `json:"series,omitempty"`
}

// driverLine is the last line of standard output: the contract of
// BENCHMARK.json's driver.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndOf turns the untraced passes into the end-to-end metrics.
//
// Throughput and CPU cost are quartiles of the per-second values, not
// totals: the baseline host slows by a quarter for tens of seconds at a
// time, which only ever makes a second worse, while a regression makes
// every second worse. The quartile toward the better side halved the
// run-to-run spread of both. The latency percentiles are medians of the
// per-second percentiles for the same reason: one 70 ms hiccup is 1 % of a
// 6-second window and moved a whole-window p99 from 30 ms to 86 ms.
func endToEndOf(w *workload, un passes, setups []float64, r *result) {
	cost, lat := un.cost, un.lat
	first, last := cost.cost[0], cost.cost[len(cost.cost)-1]
	rates, cpus := cost.perSecond()
	r.Series["throughput_pkts_s"] = append([]float64(nil), rates...)
	r.Series["cpu_s_per_mpkt"] = append([]float64(nil), cpus...)
	var failed, emitted int64
	for _, ps := range un.each() {
		failed += ps.failed
		emitted += ps.emitted
	}
	vals := map[string]float64{
		"setup_s":           median(setups),
		"throughput_pkts_s": quartile(rates, 3),
		"latency_p50_ms":    lat.latency(0.50),
		"latency_p99_ms":    lat.latency(0.99),
		"cpu_s_per_mpkt":    quartile(cpus, 1),
		"allocs_per_pkt":    float64(last.allocs-first.allocs) / float64(cost.packets()),
		"peak_rss_mb":       float64(readUsage().maxRSSKB) / 1024,
		"failed_share":      float64(failed) / float64(emitted),
	}
	r.Samples["setup_s"] = int64(len(setups))
	r.Samples["latency_ms"] = int64(lat.lat.n)
	r.Samples["throughput_pkts_s"] = cost.packets()
	for name, xs := range lat.pipe.events {
		r.Series[name] = xs
	}
	for _, name := range []string{"recovery_time_ms", "checkpoint_pause_ms"} {
		if xs := lat.pipe.events[name]; len(xs) > 0 {
			vals[name] = median(append([]float64(nil), xs...))
			r.Samples[name] = int64(len(xs))
		}
	}
	for _, m := range endToEnd {
		if v, ok := vals[m.name]; ok && m.appliesTo(w.name) {
			r.EndToEnd[m.name] = reported{Value: v, Unit: m.unit, Better: m.better, Bound: m.bound}
		}
	}
	r.Series["latency_p50_ms"] = perSecondQuantile(lat.windows, 0.50)
	r.Series["latency_p99_ms"] = perSecondQuantile(lat.windows, 0.99)
	r.Samples["latency_seconds"] = int64(len(lat.windows))
}

// latency returns the median over the whole seconds of the window of each
// second's q-quantile latency, in milliseconds; a window too short to hold
// a whole second (the smoke test's) falls back to the window's own quantile.
func (ps *pass) latency(q float64) float64 {
	if len(ps.windows) == 0 {
		return ps.lat.quantile(q) / 1e6
	}
	return median(perSecondQuantile(ps.windows, q))
}

// perSecondQuantile returns the q-quantile of every second's latencies in
// milliseconds.
func perSecondQuantile(seconds []*hist, q float64) []float64 {
	out := make([]float64, 0, len(seconds))
	for _, h := range seconds {
		if h.n > 0 {
			out = append(out, h.quantile(q)/1e6)
		}
	}
	return out
}

// line renders the driver's last line from the metrics it asked for.
func (r *result) line() driverLine {
	l := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	if r.Traced {
		for name, m := range r.PerLayer {
			l.Metrics[name] = driverValue{m.Value, m.Unit}
		}
		return l
	}
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.name]; ok && d.universal() {
			l.Metrics[d.name] = driverValue{m.Value, m.Unit}
		}
	}
	return l
}

// print lists every metric of the result by name.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  %.0f s  GOMAXPROCS %d  correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Host.GOMAXPROCS, r.Correct, r.Attempted, r.Failed)
	printMetrics(w, r.EndToEnd)
	printMetrics(w, r.PerLayer)
}

func printMetrics(w io.Writer, ms map[string]reported) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s (%s is better)\n", name, m.Value, m.Unit, m.Better)
	}
}

// outDir is where result and trace files go: benchmark/out whether the
// program runs from the repository root or from its own directory.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
