package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostFacts are recorded in every result so two result files can be told
// apart by where and how they were measured.
type hostFacts struct {
	CPUModel   string `json:"cpu_model"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

// maxProcs caps GOMAXPROCS so results from a large host stay comparable
// with the 2- and 4-CPU sandboxes the baselines come from.
const maxProcs = 4

// hostProcs is the GOMAXPROCS of the multi-core workloads.
func hostProcs() int {
	if n := runtime.NumCPU(); n < maxProcs {
		return n
	}
	return maxProcs
}

func readHostFacts() hostFacts {
	h := hostFacts{
		CPUModel:   "unknown",
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// gitSHA reads the checked-out commit without running git: the driver's
// checkout is not a repository, and then the answer is "none".
func gitSHA() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if sha, err := os.ReadFile(dir + "/" + name); err == nil {
			return strings.TrimSpace(string(sha))
		}
	}
	return "none"
}

// usage is one reading of the process-wide cost counters. Deltas between
// two readings give the per-packet costs.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system, getrusage
	maxRSSKB int64
	allocs   uint64 // heap objects allocated, cumulative
	bytes    uint64 // heap bytes allocated, cumulative
	gcCPU    float64
	totalCPU float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readUsage reads the counters without stopping the world (runtime/metrics,
// not runtime.ReadMemStats), so it can be called while the workload runs.
func readUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSKB = ru.Maxrss
	}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	u.allocs = s[0].Value.Uint64()
	u.bytes = s[1].Value.Uint64()
	u.gcCPU = s[2].Value.Float64()
	u.totalCPU = s[3].Value.Float64()
	return u
}

// heapInUseMB reads the bytes held by live and not-yet-swept heap objects.
func heapInUseMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
