// Command benchmark is the repository's benchmark: five stream workloads
// driven through the public engine API, ten end-to-end metrics measured
// with tracing off, and a per-layer ledger measured from outside the
// program. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var workloads = append(append([]*workload{}, relayWorkloads...), mfgWorkload, recoveryWorkload)

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// errInvalid marks a run that is not a result: the load generator itself
// ran too late for the latencies to mean anything.
var errInvalid = errors.New("invalid run")

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupRounds is how many times a run times set-up; setup_s is the median.
const setupRounds = 9

// runWorkload runs one workload in this process: set-up rounds, the
// untraced pass and, when traced, the traced pass and the layer kernels.
func runWorkload(w *workload, opts runOpts, traced bool) (*result, error) {
	procs := w.procs
	if procs == 0 {
		procs = hostProcs()
	}
	runtime.GOMAXPROCS(procs)
	r := &result{
		Workload: w.name, Seed: opts.seed, Seconds: opts.seconds.Seconds(), Traced: traced,
		Host:     readHostFacts(),
		Samples:  map[string]int64{},
		EndToEnd: map[string]reported{},
		Series:   map[string][]float64{},
	}
	if traced {
		// The traced run spends its measured time on two passes of half
		// the length, untraced and traced, and times no extra set-ups.
		opts.seconds /= 2
		opts.setupRounds = 1
	}
	var setups []float64
	for i := 1; i < opts.setupRounds; i++ {
		d, err := timeSetup(w, opts)
		if err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
	}
	un, err := runPasses(w, opts, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, un.cost.setup.Seconds())
	endToEndOf(w, un, setups, r)
	for _, ps := range un.each() {
		r.Attempted += ps.emitted
		r.Failed += ps.failed
	}
	r.Correct = r.Failed == 0
	if p99 := r.EndToEnd["latency_p99_ms"].Value; w.p99Limit > 0 && p99 > ms(w.p99Limit) {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "benchmark: %s: latency p99 %.3f ms exceeds the workload's limit of %v\n", w.name, p99, w.p99Limit)
	}
	if err := validate(un.lat); err != nil {
		return r, err
	}
	if traced {
		if err := perLayerOf(w, opts, un, r); err != nil {
			return r, err
		}
	}
	return r, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "selfcheck":
			os.Exit(selfcheck(os.Args[2:]))
		case "compare":
			os.Exit(compare(os.Args[2:]))
		}
	}
	name := flag.String("workload", "", "run this workload in this process; default: every workload, each in a child process")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1: also run the traced pass and the layer kernels, and report the per-layer metrics")
	out := flag.String("out", "", "also write the full result to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	opts := runOpts{
		seed:        *seed,
		seconds:     secondsOf(*seconds),
		scale:       1,
		setupRounds: setupRounds,
	}
	if *name == "" {
		os.Exit(runAll(opts, *trace == 1))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r, err := runWorkload(w, opts, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	file := filepath.Join(outDir(), w.name+".json")
	if r.Traced {
		file = filepath.Join(outDir(), w.name+".traced.json")
	}
	if *out != "" {
		file = *out
	}
	if err := writeJSON(file, r); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	r.print(os.Stdout)
	if !r.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: reference check failed: %d of %d packets\n", w.name, r.Failed, r.Attempted)
		os.Exit(1)
	}
	line, err := json.Marshal(r.line())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
