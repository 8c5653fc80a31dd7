package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/stats"
)

// defaultSeconds is the measured window when -seconds is not given; it is
// BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// resultSet is a result file: one result per workload.
type resultSet struct {
	Results []*result `json:"results"`
}

func (s *resultSet) find(workload string) *result {
	for _, r := range s.Results {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

// runChild runs one workload in a fresh child process of this binary, so
// that GOMAXPROCS, peak RSS and the GC's totals belong to that workload
// alone, and returns the result the child wrote.
func runChild(w *workload, opts runOpts, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(outDir(), w.name+".*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", w.name,
		"-seed", strconv.FormatInt(opts.seed, 10),
		"-seconds", strconv.FormatFloat(opts.seconds.Seconds(), 'f', -1, 64),
		"-trace", trace,
		"-out", tmp.Name())
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	r := new(result)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: result file: %w", w.name, err)
	}
	return r, nil
}

// runAll runs every workload once and prints every metric by name.
func runAll(opts runOpts, traced bool) int {
	var set resultSet
	for _, w := range workloads {
		r, err := runChild(w, opts, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		r.print(os.Stdout)
		set.Results = append(set.Results, r)
	}
	file := filepath.Join(outDir(), "results.json")
	if err := writeJSON(file, &set); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s\n", file)
	return 0
}

// verdict is one row of a comparison.
type verdict struct {
	workload, metric string
	a, b             float64
	worse            float64 // share by which b is worse than a; negative: better
	bound            float64
	p                float64 // Welch two-tailed p of the series; NaN without series
	regression       bool
}

// judge compares candidate b against baseline a on every end-to-end metric
// of every workload both hold. A metric regresses when it is worse by more
// than its bound and, where both sides kept per-second or per-event
// series, the series differ significantly.
func judge(a, b *resultSet) []verdict {
	var rows []verdict
	for _, w := range workloads {
		ra, rb := a.find(w.name), b.find(w.name)
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			ma, okA := ra.EndToEnd[m.name]
			mb, okB := rb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			v := verdict{workload: w.name, metric: m.name, a: ma.Value, b: mb.Value, bound: m.bound, p: math.NaN()}
			diff := mb.Value - ma.Value
			if m.better == higher {
				diff = -diff
			}
			switch {
			case ma.Value != 0:
				v.worse = diff / math.Abs(ma.Value)
			case diff > 0:
				v.worse = math.Inf(1) // from zero, any increase is unbounded
			}
			v.regression = v.worse > m.bound
			if m.name == "setup_s" && math.Abs(diff) < setupFloorS {
				v.regression = false
			}
			if t, err := stats.WelchTTest(ra.Series[m.name], rb.Series[m.name]); err == nil {
				v.p = t.PTwoTailed
				if !t.Significant {
					v.regression = false
				}
			}
			rows = append(rows, v)
		}
	}
	return rows
}

// printVerdicts prints the rows and reports whether any regressed.
func printVerdicts(rows []verdict) bool {
	fmt.Printf("%-15s %-20s %14s %14s %9s %7s %8s\n", "workload", "metric", "a", "b", "worse", "bound", "welch p")
	bad := false
	for _, v := range rows {
		p, mark := "-", ""
		if !math.IsNaN(v.p) {
			p = fmt.Sprintf("%.3f", v.p)
		}
		if v.regression {
			mark, bad = "  REGRESSION", true
		}
		fmt.Printf("%-15s %-20s %14.4f %14.4f %+8.1f%% %6.0f%% %8s%s\n",
			v.workload, v.metric, v.a, v.b, 100*v.worse, 100*v.bound, p, mark)
	}
	return bad
}

// selfcheck runs two full sets of the same build, alternating which set
// goes first, and fails when they disagree by more than the bounds: the
// benchmark's own test that its bounds are wider than its noise.
func selfcheck(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	fs.Parse(args)
	opts := runOpts{seed: *seed, seconds: secondsOf(*seconds), scale: 1, setupRounds: setupRounds}
	var sets [2]resultSet
	for i, w := range workloads {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			r, err := runChild(w, opts, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			sets[side].Results = append(sets[side].Results, r)
		}
	}
	// Either order must hold: a is judged against b and b against a.
	bad := printVerdicts(judge(&sets[0], &sets[1]))
	for _, v := range judge(&sets[1], &sets[0]) {
		if v.regression {
			fmt.Printf("%s %s: second set against first: worse by %.1f%% (bound %.0f%%)\n", v.workload, v.metric, 100*v.worse, 100*v.bound)
			bad = true
		}
	}
	if bad {
		fmt.Println("selfcheck: two sets of the same build disagree by more than the bounds")
		return 1
	}
	fmt.Println("selfcheck: two sets of the same build agree within the bounds")
	return 0
}

// compare applies the bounds to two result files: baseline, then candidate.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare baseline.json candidate.json")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	if printVerdicts(judge(&sets[0], &sets[1])) {
		return 1
	}
	return 0
}
