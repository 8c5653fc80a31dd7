package main

import (
	"fmt"
	"time"

	neptune "repro"
	"repro/internal/core"
	"repro/internal/debs"
	"repro/internal/packet"
)

const (
	mfgIngest = 2 // ingest instances (sensor gateways)
	// mfgMachinesPerIngest machines share a gateway, so the keyed links
	// spread eight keys over two instances instead of betting the balance
	// on the hash of two.
	mfgMachinesPerIngest = 4
	mfgMachines          = mfgIngest * mfgMachinesPerIngest
	mfgWindow            = 24 * time.Hour // the paper's aggregation window
	// mfgChangeProbability is the chance per reading that a sensor flips.
	// The generator's default, 0.002, yields one alert per 170 readings:
	// 2 400 latency samples in a paced pass, 24 beyond the 99th
	// percentile, which then moved by a factor of two between runs.
	mfgChangeProbability = 0.02
)

// newMfgGenerator returns machine's reading generator for the run seed.
func newMfgGenerator(seed int64, machine int) *debs.Generator {
	g := debs.NewGenerator(seed*1000 + int64(machine) + 1)
	g.ChangeProbability = mfgChangeProbability
	return g
}

// fillReading writes one full 66-field reading as ingest emits it.
func fillReading(p *packet.Packet, machine int, t0 int64, r *debs.Reading) {
	p.AddInt64("machine", int64(machine))
	p.AddInt64("t0", t0)
	debs.FillPacketFull(p, r)
}

func genMfg(seed int64) func(*packet.Packet, int64) {
	g := newMfgGenerator(seed, 0)
	return func(p *packet.Packet, k int64) { fillReading(p, 0, k*3000, g.Next()) }
}

// machineTally is what the reference check compares per machine.
type machineTally struct {
	actuations int64
	delaySum   int64
}

// mfgReference runs debs.Monitor directly over the same generator seeds,
// for as many readings as each machine emitted.
func mfgReference(seed int64, readings [mfgMachines]int64) [mfgMachines]machineTally {
	var want [mfgMachines]machineTally
	for m := range want {
		g := newMfgGenerator(seed, m)
		mon := debs.NewMonitor(mfgWindow)
		for i := int64(0); i < readings[m]; i++ {
			r := g.Next()
			for _, a := range mon.ObserveReading(r.TimestampNs, r.Sensors, r.Valves) {
				want[m].actuations++
				want[m].delaySum += a.DelayNs
			}
		}
	}
	return want
}

// buildMfg deploys the DEBS-2012 manufacturing dataflow of
// examples/manufacturing over two engines and plain TCP: ingest and alerts
// on engine A, project and monitor on engine B.
func buildMfg(e *env) (*pipeline, error) {
	spec, err := neptune.NewGraph(e.w.name).
		Source("ingest", mfgIngest).
		Processor("project", 2).
		Processor("monitor", 2).
		Processor("alerts", 1).
		Link("ingest", "project", "fields:machine").
		Link("project", "monitor", "fields:machine").
		Link("monitor", "alerts", "").
		Build()
	if err != nil {
		return nil, err
	}
	cfg := neptune.DefaultConfig() // compression off, the paper's default
	engines, err := newEngines(cfg, "A", "B")
	if err != nil {
		return nil, err
	}
	job, err := neptune.NewJob(spec, cfg)
	if err != nil {
		return nil, err
	}
	p := &pipeline{job: job, engines: engines}

	// readings[m] is written by machine m's ingest instance only and read
	// after Job.Stop.
	var readings [mfgMachines]int64
	job.SetSource("ingest", func(instance int) core.Source {
		st := e.newStage("ingest", true)
		var gens [mfgMachinesPerIngest]*debs.Generator
		for j := range gens {
			gens[j] = newMfgGenerator(e.opts.seed, instance*mfgMachinesPerIngest+j)
		}
		var next int64 // readings emitted by this gateway
		return e.source(mfgIngest, func(ctx *core.OpContext, t0 int64) error {
			j := int(next % mfgMachinesPerIngest)
			machine := instance*mfgMachinesPerIngest + j
			st.enter(next)
			pk := ctx.NewPacket()
			fillReading(pk, machine, t0, gens[j].Next())
			err := e.emitCounted(st, ctx, pk)
			st.exit()
			if err != nil {
				// The generator has advanced past a reading the engine
				// refused; the job is stopping and no reading follows.
				return err
			}
			readings[machine]++
			next++
			return nil
		})
	})

	job.SetProcessor("project", func(int) core.Processor {
		st := e.newStage("project", false)
		return core.ProcessorFunc(func(ctx *core.OpContext, in *packet.Packet) error {
			st.enter(-1)
			out := ctx.NewPacket()
			for _, f := range [...]string{"machine", "t0", "ts"} {
				v, err := in.Int64(f)
				if err != nil {
					return err
				}
				out.AddInt64(f, v)
			}
			for _, f := range [...]string{"s1", "s2", "s3", "v1", "v2", "v3"} {
				v, err := in.Bool(f)
				if err != nil {
					return err
				}
				out.AddBool(f, v)
			}
			err := st.emit(ctx, out)
			st.exit()
			return err
		})
	})

	job.SetProcessor("monitor", func(int) core.Processor {
		st := e.newStage("monitor", false)
		monitors := map[int64]*debs.Monitor{}
		return core.ProcessorFunc(func(ctx *core.OpContext, in *packet.Packet) error {
			st.enter(-1)
			defer st.exit()
			machine, err := in.Int64("machine")
			if err != nil {
				return err
			}
			m := monitors[machine]
			if m == nil {
				m = debs.NewMonitor(mfgWindow)
				monitors[machine] = m
			}
			acts, err := m.Observe(in)
			if err != nil {
				return err
			}
			if len(acts) == 0 {
				return nil
			}
			t0, err := in.Int64("t0")
			if err != nil {
				return err
			}
			for _, a := range acts {
				out := ctx.NewPacket()
				out.AddInt64("machine", machine)
				out.AddInt64("t0", t0)
				out.AddInt64("sensor", int64(a.Sensor))
				out.AddInt64("delay_ns", a.DelayNs)
				count, meanNs, maxNs := m.WindowStats(a.Sensor)
				out.AddInt64("win_count", int64(count))
				out.AddInt64("win_mean_ns", meanNs)
				out.AddInt64("win_max_ns", maxNs)
				if err := st.emit(ctx, out); err != nil {
					return err
				}
			}
			return nil
		})
	})

	var got [mfgMachines]machineTally
	job.SetProcessor("alerts", func(int) core.Processor {
		st := e.newStage("alerts", false)
		return core.ProcessorFunc(func(_ *core.OpContext, in *packet.Packet) error {
			st.enter(-1)
			defer st.exit()
			machine, err := in.Int64("machine")
			if err != nil {
				return err
			}
			if machine < 0 || machine >= mfgMachines {
				return fmt.Errorf("alert for unknown machine %d", machine)
			}
			delay, err := in.Int64("delay_ns")
			if err != nil {
				return err
			}
			t0, err := in.Int64("t0")
			if err != nil {
				return err
			}
			e.sink.arrive(t0)
			got[machine].actuations++
			got[machine].delaySum += delay
			return nil
		})
	})

	p.verify = func(int64) (int64, error) {
		want := mfgReference(e.opts.seed, readings)
		var failed int64
		for m := range want {
			if d := want[m].actuations - got[m].actuations; d != 0 {
				failed += abs64(d)
			} else if want[m].delaySum != got[m].delaySum {
				failed++
			}
		}
		return failed, nil
	}

	place := func(op string, _ int) int {
		if op == "project" || op == "monitor" {
			return 1
		}
		return 0
	}
	if err := e.launchOn(job, engines, place, tcpBridger()); err != nil {
		return nil, err
	}
	return p, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

var mfgWorkload = &workload{
	name:      "mfg_sat_tcp",
	why:       "the DEBS-2012 manufacturing dataflow at saturation over plain TCP: 66-field packets, keyed fan-out, gather-write egress, stateful logic; shows a codec or egress change that suits only small packets",
	pacedRate: 80_000,
	warmup:    2 * time.Second,
	build:     buildMfg,
	gen:       genMfg,
	// project -> monitor stays inside engine B.
	remoteOps: []string{"ingest", "monitor"},
}
