package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	neptune "repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/window"
)

const (
	recoveryWindow = 16 // sliding-window length, packets

	// The harness's own schedule, from the start of the pass: every second
	// of the measured window has one kill and, half a second later so the
	// two never compete for the supervisor, one checkpoint. With a kill in
	// every second the median of the per-second p99 latencies is the tail
	// of an outage, and moves with recovery time.
	checkpointEvery = time.Second
	checkpointFirst = 500 * time.Millisecond
	killEvery       = time.Second
	killFirst       = 3 * time.Second

	// caughtUp is how far behind schedule the sink may still be when the
	// stream counts as recovered.
	caughtUp = 30 * time.Millisecond
)

func fillRecovery(p *packet.Packet, i, t0 int64) {
	p.AddInt64("i", i)
	p.AddInt64("t0", t0)
}

func genRecovery(int64) func(*packet.Packet, int64) {
	return func(p *packet.Packet, k int64) { fillRecovery(p, k, k*10000) }
}

// windowSum is the closed form of the sliding sum over the last
// recoveryWindow integers ending at i: the reference the sink checks every
// packet against.
func windowSum(i int64) float64 {
	lo := i - recoveryWindow + 1
	if lo < 0 {
		lo = 0
	}
	return float64((lo + i) * (i - lo + 1) / 2)
}

// windowOp is the stateful middle stage: a sliding window and an input
// cursor, both of which must survive the kill through the checkpoint.
type windowOp struct {
	st   *stage
	win  *window.SlidingCount
	seen int64
}

func (m *windowOp) Open(*core.OpContext) error { return nil }
func (m *windowOp) Close() error               { return nil }

func (m *windowOp) Process(ctx *core.OpContext, in *packet.Packet) error {
	i, err := in.Int64("i")
	if err != nil {
		return err
	}
	m.st.enter(i)
	t0, err := in.Int64("t0")
	if err != nil {
		return err
	}
	m.win.Add(float64(i))
	m.seen++
	out := ctx.NewPacket()
	fillRecovery(out, i, t0)
	out.AddInt64("seen", m.seen)
	out.AddFloat64("sum", m.win.Sum())
	err = m.st.emit(ctx, out)
	m.st.exit()
	return err
}

func (m *windowOp) SnapshotState(*core.OpContext) ([]byte, error) {
	blob, err := m.win.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(binary.AppendVarint(nil, m.seen), blob...), nil
}

func (m *windowOp) RestoreState(_ *core.OpContext, state []byte) error {
	seen, n := binary.Varint(state)
	if n <= 0 {
		return errors.New("window op: truncated state")
	}
	m.seen = seen
	return m.win.UnmarshalBinary(state[n:])
}

// recoveryCheck is the sink's reference check: in order, exactly once,
// with the operator state every packet should have seen.
type recoveryCheck struct {
	seq      seqCheck
	badState int64
}

func (c *recoveryCheck) observe(i, seen int64, sum float64) {
	c.seq.observe(i)
	if seen != i+1 || sum != windowSum(i) {
		c.badState++
	}
}

// buildRecovery deploys sender -> sliding window -> receiver on three
// engines over the resilient bridger, supervised in manual mode: the
// harness, not a timer, calls Checkpoint and Kill.
func buildRecovery(e *env) (*pipeline, error) {
	spec, err := neptune.NewGraph(e.w.name).
		Source("sender", 1).
		Processor("window", 1).
		Processor("receiver", 1).
		Link("sender", "window", "").
		Link("window", "receiver", "").
		Build()
	if err != nil {
		return nil, err
	}
	store := checkpoint.NewMemStore(0)
	cfg := neptune.DefaultConfig()
	cfg.Checkpoint = core.CheckpointConfig{Store: store} // Interval 0: manual epochs
	engines, err := newEngines(cfg, "src", "mid", "sink")
	if err != nil {
		return nil, err
	}
	job, err := neptune.NewJob(spec, cfg)
	if err != nil {
		return nil, err
	}
	p := &pipeline{
		job:     job,
		engines: engines,
		events:  map[string][]float64{},
		store:   store,
	}

	job.SetSource("sender", func(int) core.Source {
		st := e.newStage("sender", true)
		var next int64
		return e.source(1, func(ctx *core.OpContext, t0 int64) error {
			st.enter(next)
			pk := ctx.NewPacket()
			fillRecovery(pk, next, t0)
			err := e.emitCounted(st, ctx, pk)
			st.exit()
			if err == nil {
				next++
			}
			return err
		})
	})
	job.SetProcessor("window", func(int) core.Processor {
		w, err := window.NewSlidingCount(recoveryWindow)
		if err != nil {
			panic(err) // the size is a positive constant
		}
		return &windowOp{st: e.newStage("window", false), win: w}
	})
	var check recoveryCheck
	job.SetProcessor("receiver", func(int) core.Processor {
		st := e.newStage("receiver", false)
		return core.ProcessorFunc(func(_ *core.OpContext, in *packet.Packet) error {
			i, err := in.Int64("i")
			if err != nil {
				return err
			}
			st.enter(i)
			defer st.exit()
			t0, err := in.Int64("t0")
			if err != nil {
				return err
			}
			seen, err := in.Int64("seen")
			if err != nil {
				return err
			}
			sum, err := in.Float64("sum")
			if err != nil {
				return err
			}
			e.sink.arrive(t0)
			check.observe(i, seen, sum)
			return nil
		})
	})
	p.verify = func(emitted int64) (int64, error) {
		return check.seq.result(emitted) + check.badState, nil
	}
	p.drive = func(done <-chan struct{}) error { return driveRecovery(e, p, done) }

	place := func(op string, _ int) int {
		switch op {
		case "sender":
			return 0
		case "window":
			return 1
		default:
			return 2
		}
	}
	if err := e.launchOn(job, engines, place, resilientBridger()); err != nil {
		return nil, err
	}
	if job.Supervisor() == nil {
		return nil, errors.New("Config.Checkpoint did not attach a supervisor")
	}
	return p, nil
}

// driveRecovery is the harness's side of the recovery workload: once a
// second it takes a checkpoint and, half a second apart, kills the middle
// engine, timing each call and each recovery from outside. A call that
// fails, or a kill the stream does not recover from, fails the pass.
func driveRecovery(e *env, p *pipeline, done <-chan struct{}) error {
	sup := p.job.Supervisor()
	nextCkpt := e.scaled(checkpointFirst)
	nextKill := e.scaled(killFirst)
	var kills, ckpts int64
	for {
		at := nextCkpt
		if nextKill < at {
			at = nextKill
		}
		select {
		case <-done:
			return nil
		case <-time.After(time.Until(e.base.Add(at))):
		}
		if at == nextCkpt {
			nextCkpt += e.scaled(checkpointEvery)
			sp := e.tr.begin("Supervisor.Checkpoint", ckpts)
			start := time.Now()
			err := sup.Checkpoint()
			d := time.Since(start)
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("checkpoint %d: %w", ckpts, err)
			}
			ckpts++
			p.events["checkpoint_pause_ms"] = append(p.events["checkpoint_pause_ms"], ms(d))
			continue
		}
		nextKill += e.scaled(killEvery)
		restarts := p.job.RecoveryHealth().Restarts
		sp := e.tr.begin("Supervisor.Kill", kills)
		start := time.Now()
		err := sup.Kill("mid")
		e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("kill %d: %w", kills, err)
		}
		// Restarted: the supervisor has revived the engine. Caught up: the
		// sink is back within caughtUp of the schedule.
		sp = e.tr.begin("recovery", kills)
		var restarted, recovered time.Duration
		for recovered == 0 && time.Since(start) < 10*time.Second {
			switch {
			case restarted == 0:
				if p.job.RecoveryHealth().Restarts > restarts {
					restarted = time.Since(start)
				}
			case e.sink.count.Load() >= e.dueBy(e.now()-int64(caughtUp)):
				recovered = time.Since(start)
			}
			time.Sleep(200 * time.Microsecond)
		}
		e.tr.end(sp)
		if recovered == 0 {
			return fmt.Errorf("kill %d: the stream had not caught up 10 s later", kills)
		}
		kills++
		p.events["kill_to_restart_ms"] = append(p.events["kill_to_restart_ms"], ms(restarted))
		p.events["recovery_time_ms"] = append(p.events["recovery_time_ms"], ms(recovered))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var recoveryWorkload = &workload{
	name:      "recovery_kill",
	why:       "open loop at 100 k pkts/s through a stateful window on three engines, checkpointed and killed once a second: the one workload where checkpoint, quiesce, restore, replay and heartbeats work",
	rate:      100_000,
	warmup:    2 * time.Second,
	lateLimit: time.Second,
	build:     buildRecovery,
	gen:       genRecovery,
	remoteOps: []string{"sender", "window"},
}
