package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/packet"
)

// workload is one set of inputs the benchmark runs: a graph, a deployment,
// a load shape and a reference check.
type workload struct {
	name string
	why  string
	// procs is the GOMAXPROCS the workload runs at; 0 means hostProcs().
	procs int
	// rate is the open-loop offered rate in packets/s. 0 means closed loop:
	// the source emits as fast as backpressure allows, and latency is then
	// taken in a second pass paced at pacedRate (see runPasses).
	rate      float64
	pacedRate float64
	// warmup is discarded before the measured window opens.
	warmup time.Duration
	// lateLimit is the latency past which a single packet counts as
	// failed; 0 means none does. p99Limit is the workload's latency limit:
	// a run whose latency_p99_ms exceeds it is not correct. The two differ
	// because one host stall of 100 ms makes 20 000 packets late at 200 k
	// pkts/s without saying anything about the engine; it happened in one
	// run in fifty on the baseline host.
	lateLimit time.Duration
	p99Limit  time.Duration
	// target is Config.LatencyTarget; 0 leaves the QoS runtime off.
	target time.Duration
	// build constructs engines and job, wires the operators and launches.
	build func(e *env) (*pipeline, error)
	// gen returns the workload's packet generator: fill writes packet k as
	// the source would, with a synthetic time stamp. The layer kernels of
	// the traced run work on packets made this way.
	gen func(seed int64) func(p *packet.Packet, k int64)
	// remoteOps are the operators whose outgoing link crosses engines.
	remoteOps []string
}

// runOpts is what one run of one workload is asked to do.
type runOpts struct {
	seed    int64
	seconds time.Duration // length of the measured window
	// scale shrinks warm-up, settling and the recovery cadence; 1 in a real
	// run, less in the smoke test.
	scale float64
	// setupRounds is how many times set-up is timed (the measured pass is
	// the last of them).
	setupRounds int
}

// A closed-loop workload is measured in two passes, each a job of its own.
// The paced pass offers the workload's fixed paced rate and yields
// latency; the saturated pass runs closed loop for saturationShare of the
// measured time and yields throughput and the per-packet costs. Latency
// taken at saturation is the depth of whatever queue happened to fill and
// differed by a factor of three between runs of the same build.
const (
	saturationShare = 0.5
	pacedWarmup     = time.Second
)

// env is the state one pass shares between the harness and the operators
// it hands to the engine.
type env struct {
	opts runOpts
	w    *workload
	base time.Time
	tr   *tracer // nil in the untraced pass

	stop    atomic.Bool  // sources finish at their next call
	emitted atomic.Int64 // source packets emitted, all instances
	// paceRate is the open-loop rate all sources together offer from
	// paceAt (the pass clock at creation) on; 0 in a closed-loop pass.
	paceRate float64
	paceAt   int64
	sink     sinkRec
	launch   time.Duration // time inside Job.LaunchOn

	mu   sync.Mutex
	lags []*hist // generator lateness, one per paced source instance
}

// newEnv starts a pass; rate is the open-loop rate the sources offer, 0
// for a closed loop.
func newEnv(w *workload, opts runOpts, tr *tracer, rate float64) *env {
	e := &env{opts: opts, w: w, base: time.Now(), tr: tr, paceRate: rate}
	e.paceAt = e.now()
	e.sink.now = e.now
	e.sink.lateLimit = int64(w.lateLimit)
	e.sink.to.Store(int64(^uint64(0) >> 1))
	return e
}

// now is the pass clock: nanoseconds since the pass began, monotonic, and
// never 0.
func (e *env) now() int64 { return int64(time.Since(e.base)) + 1 }

// scaled applies the smoke-test scale to a duration.
func (e *env) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * e.opts.scale)
}

// emitCounted emits one source packet and counts it once the engine has
// taken it: an emit refused because the job is stopping made no packet.
func (e *env) emitCounted(st *stage, ctx *core.OpContext, p *packet.Packet) error {
	if err := st.emit(ctx, p); err != nil {
		return err
	}
	e.emitted.Add(1)
	return nil
}

// source turns a per-packet emit function into a Source: on the open-loop
// schedule in a paced pass (shares instances divide the rate), as fast as
// the engine takes packets otherwise. emit makes and emits one packet
// stamped t0.
func (e *env) source(shares int, emit func(ctx *core.OpContext, t0 int64) error) core.Source {
	sched := e.schedule(shares)
	var ctx *core.OpContext
	emitDue := func(_, due int64) error { return emit(ctx, due) }
	return core.SourceFunc(func(c *core.OpContext) error {
		if e.stop.Load() {
			return io.EOF
		}
		if sched == nil {
			return emit(c, e.now())
		}
		ctx = c
		return sched.step(emitDue)
	})
}

// dueBy returns how many packets the paced sources together owe at pass
// clock t.
func (e *env) dueBy(t int64) int64 {
	if e.paceRate == 0 || t < e.paceAt {
		return 0
	}
	return int64(float64(t-e.paceAt)*e.paceRate/1e9) + 1
}

// schedule returns one source instance's open-loop schedule — its share
// of the paced rate when shares instances divide it — or nil in a
// closed-loop pass.
func (e *env) schedule(shares int) *openLoop {
	if e.paceRate == 0 {
		return nil
	}
	g := &openLoop{
		rate:  e.paceRate / float64(shares),
		start: e.paceAt,
		now:   e.now,
		sleep: preciseSleep,
		lag:   new(hist),
	}
	e.mu.Lock()
	e.lags = append(e.lags, g.lag)
	e.mu.Unlock()
	return g
}

// pipeline is a launched job plus what the harness needs to drive and
// check it.
type pipeline struct {
	job     *core.Job
	engines []*core.Engine
	// drive, when set, is the harness's own activity during the pass
	// (checkpoints and kills); it returns when done is closed, or earlier
	// with the error that fails the pass.
	drive func(done <-chan struct{}) error
	// verify is the reference check; it runs after Job.Stop and returns
	// how many packets were lost, duplicated, reordered or wrong.
	verify func(emitted int64) (failed int64, err error)
	// events are the per-event series drive records (recovery times,
	// checkpoint pauses).
	events map[string][]float64
	// store is the checkpoint store of a supervised job, nil otherwise.
	store checkpoint.Store
}

// sinkRec records arrivals at the final sink. One sink instance feeds it,
// and the engine never overlaps an instance's Process calls, so only the
// fields the harness polls while the pass runs are atomic.
type sinkRec struct {
	now       func() int64
	lateLimit int64

	first atomic.Int64 // clock of the first arrival; 0 before it
	count atomic.Int64
	// from and to bound the latency window on the packet's t0 stamp.
	from, to atomic.Int64

	all     hist    // the latency window
	seconds []*hist // every arrival, by the second of the pass its t0 falls in
	late    int64   // arrivals in the window later than lateLimit
}

// arrive records one packet stamped t0 reaching the sink.
func (s *sinkRec) arrive(t0 int64) {
	now := s.now()
	if s.count.Add(1) == 1 {
		s.first.Store(now)
	}
	lat := now - t0
	i := int(t0 / int64(time.Second))
	for len(s.seconds) <= i {
		s.seconds = append(s.seconds, new(hist))
	}
	s.seconds[i].record(lat)
	from := s.from.Load()
	if from == 0 || t0 < from || t0 >= s.to.Load() {
		return
	}
	s.all.record(lat)
	if s.lateLimit > 0 && lat > s.lateLimit {
		s.late++
	}
}

// costSample is one reading of the counters the per-packet costs come from.
type costSample struct {
	usage
	emitted int64
}

// pass is the raw outcome of one launch-warm-measure-stop cycle.
type pass struct {
	setup  time.Duration // pass start to first packet at the final sink
	launch time.Duration
	drain  time.Duration // time inside Job.Stop
	// cost holds one reading per second of the measured window, the first
	// and the last at its edges.
	cost    []costSample
	emitted int64 // source packets emitted in the whole pass
	failed  int64 // reference-check failures + late arrivals
	end     time.Time
	lat     hist
	windows []*hist // per-second latency inside the measured window
	lag     hist    // generator lateness while paced
	pipe    *pipeline
	env     *env

	peakGoroutines int
	peakHeapMB     float64
}

// packets is the number of source packets emitted inside the measured window.
func (ps *pass) packets() int64 { return ps.cost[len(ps.cost)-1].emitted - ps.cost[0].emitted }

// window is the length of the measured window.
func (ps *pass) window() time.Duration { return ps.cost[len(ps.cost)-1].at.Sub(ps.cost[0].at) }

// perSecond returns, for every second of the measured window, the source rate
// in packets/s and the process CPU seconds per million source packets.
func (ps *pass) perSecond() (rate, cpuPerMpkt []float64) {
	for i := 1; i < len(ps.cost); i++ {
		a, b := ps.cost[i-1], ps.cost[i]
		n := float64(b.emitted - a.emitted)
		if n <= 0 {
			continue
		}
		rate = append(rate, n/b.at.Sub(a.at).Seconds())
		cpuPerMpkt = append(cpuPerMpkt, (b.cpu-a.cpu).Seconds()/(n/1e6))
	}
	return rate, cpuPerMpkt
}

var errNoArrival = errors.New("no packet reached the final sink within 20 s of launch")

// launchUntilFirst builds and launches the workload and waits for the
// first packet at the final sink: the set-up a user waits through.
func launchUntilFirst(e *env) (*pipeline, time.Duration, error) {
	p, err := e.w.build(e)
	if err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for e.sink.first.Load() == 0 {
		if time.Now().After(deadline) {
			e.stop.Store(true)
			_ = p.job.Stop(5 * time.Second) // already failing with errNoArrival
			return nil, 0, errNoArrival
		}
		time.Sleep(50 * time.Microsecond)
	}
	return p, time.Duration(e.sink.first.Load()), nil
}

// timeSetup runs set-up once and tears the job down again.
func timeSetup(w *workload, opts runOpts) (time.Duration, error) {
	e := newEnv(w, opts, nil, w.rate)
	p, d, err := launchUntilFirst(e)
	if err != nil {
		return 0, err
	}
	e.stop.Store(true)
	if err := p.job.Stop(30 * time.Second); err != nil {
		return 0, fmt.Errorf("stop after set-up: %w", err)
	}
	return d, nil
}

// measure runs one full pass of the workload: launch, warm up, measure for
// window, stop, check. rate is the open-loop rate offered, 0 for a closed
// loop.
func measure(w *workload, opts runOpts, tr *tracer, rate float64, warmup, window time.Duration) (*pass, error) {
	e := newEnv(w, opts, tr, rate)
	p, setup, err := launchUntilFirst(e)
	if err != nil {
		return nil, err
	}
	ps := &pass{setup: setup, launch: e.launch, pipe: p, env: e}

	done := make(chan struct{})
	var bg sync.WaitGroup
	var driveErr error
	bg.Add(2)
	go func() {
		defer bg.Done()
		if p.drive != nil {
			driveErr = p.drive(done)
		}
	}()
	go func() {
		defer bg.Done()
		ps.watchRuntime(done)
	}()

	time.Sleep(time.Until(e.base.Add(e.scaled(warmup))))
	e.sink.from.Store(e.now())
	ps.sampleCost(window)
	e.sink.to.Store(e.now())
	close(done)
	bg.Wait()
	e.stop.Store(true)
	stopStart := time.Now()
	stopSpan := tr.begin("Job.Stop", -1)
	stopErr := p.job.Stop(60 * time.Second)
	tr.end(stopSpan)
	ps.end = time.Now()
	ps.drain = ps.end.Sub(stopStart)

	ps.emitted = e.emitted.Load()
	ps.lat = e.sink.all
	// The whole seconds inside the latency window are its per-second series.
	first := int((e.sink.from.Load() + int64(time.Second) - 1) / int64(time.Second))
	last := int(e.sink.to.Load() / int64(time.Second))
	if last > len(e.sink.seconds) {
		last = len(e.sink.seconds)
	}
	if first < last {
		ps.windows = e.sink.seconds[first:last]
	}
	for _, lag := range e.lags {
		ps.lag.merge(lag)
	}
	if driveErr != nil {
		return nil, driveErr
	}
	if stopErr != nil {
		return nil, fmt.Errorf("job stop: %w", stopErr)
	}
	failed, err := p.verify(ps.emitted)
	if err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	ps.failed = failed + e.sink.late
	return ps, nil
}

// sampleCost reads the cost counters now, every second for d, and at the
// end of d; it returns when d has passed.
func (ps *pass) sampleCost(d time.Duration) {
	read := func() { ps.cost = append(ps.cost, costSample{readUsage(), ps.env.emitted.Load()}) }
	read()
	end := time.Now().Add(d)
	for time.Until(end) > 1500*time.Millisecond {
		time.Sleep(time.Second)
		read()
	}
	time.Sleep(time.Until(end))
	read()
}

// watchRuntime samples goroutine count and heap size while the pass runs.
func (ps *pass) watchRuntime(done <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		if g := runtime.NumGoroutine(); g > ps.peakGoroutines {
			ps.peakGoroutines = g
		}
		if mb := heapInUseMB(); mb > ps.peakHeapMB {
			ps.peakHeapMB = mb
		}
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}

// quartile returns the q-th quartile (1 to 3) of xs, interpolating between
// neighbours, 0 for none; xs is sorted in place.
func quartile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := float64(q) / 4 * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quartile(xs, 2) }

// passes are the measured passes of one run: cost yields throughput and the
// per-packet costs, lat yields latency. An open-loop workload measures
// both in one pass.
type passes struct {
	cost, lat *pass
}

// each returns the distinct passes.
func (p passes) each() []*pass {
	if p.cost == p.lat {
		return []*pass{p.cost}
	}
	return []*pass{p.cost, p.lat}
}

// runPasses measures the workload for opts.seconds in all.
func runPasses(w *workload, opts runOpts, tr *tracer) (passes, error) {
	if w.rate > 0 {
		ps, err := measure(w, opts, tr, w.rate, w.warmup, opts.seconds)
		return passes{ps, ps}, err
	}
	saturated := time.Duration(saturationShare * float64(opts.seconds))
	// The paced pass goes first, while the heap is still small: after a
	// saturated pass the collector works through what that pass left
	// behind, and the latency tail follows it (p99 27-40 ms from run to
	// run at GOMAXPROCS=1, whole seconds at 450 ms on mfg_sat_tcp).
	lat, err := measure(w, opts, tr, w.pacedRate, pacedWarmup, opts.seconds-saturated)
	if err != nil {
		return passes{}, fmt.Errorf("paced pass: %w", err)
	}
	// Hand the memory of the passes so far back to the system, or
	// peak_rss_mb is the saturated pass's peak plus however much of their
	// garbage was still resident (183-277 MB on relay_sat_1p, against
	// 160-190 MB for the saturated pass in a process of its own).
	debug.FreeOSMemory()
	cost, err := measure(w, opts, tr, 0, w.warmup, saturated)
	if err != nil {
		return passes{}, fmt.Errorf("saturated pass: %w", err)
	}
	return passes{cost, lat}, nil
}
