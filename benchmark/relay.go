package main

import (
	"fmt"
	"math/rand"
	"time"

	neptune "repro"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/transport"
)

// relayPayload is the paper's 50-byte message body.
const relayPayload = 50

// payloadBlock is seeded random bytes the relay packets cut their payload
// from: packet k carries block[k%span : k%span+50], so the same seed gives
// the same inputs without a random draw per packet.
type payloadBlock []byte

func newPayloadBlock(seed int64) payloadBlock {
	b := make([]byte, 4096+relayPayload)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func (b payloadBlock) at(k int64) []byte {
	off := int(k % 4096)
	return b[off : off+relayPayload]
}

// fillRelay writes the relay packet: its sequence number, the time it was
// due (open loop) or made (closed loop), and the payload.
func fillRelay(p *packet.Packet, k, t0 int64, payload []byte) {
	p.AddInt64("seq", k)
	p.AddInt64("t0", t0)
	p.AddBytes("payload", payload)
}

func genRelay(seed int64) func(*packet.Packet, int64) {
	block := newPayloadBlock(seed)
	return func(p *packet.Packet, k int64) { fillRelay(p, k, k*5000, block.at(k)) }
}

// seqCheck is the relay reference check: on a single link every sequence
// number must arrive exactly once and in order.
type seqCheck struct {
	next   int64
	failed int64
}

func (c *seqCheck) observe(seq int64) {
	switch {
	case seq == c.next:
		c.next++
	case seq > c.next: // a gap: the skipped packets are lost or overtaken
		c.failed += seq - c.next
		c.next = seq + 1
	default: // a duplicate, or one of the overtaken packets arriving late
		c.failed++
	}
}

// result closes the check against the number of packets the source made.
func (c *seqCheck) result(emitted int64) int64 {
	if c.next < emitted {
		return c.failed + emitted - c.next // the tail never arrived
	}
	return c.failed
}

// relaySource returns the sender.
func relaySource(e *env) core.SourceFactory {
	return func(int) core.Source {
		st := e.newStage("sender", true)
		block := newPayloadBlock(e.opts.seed)
		var next int64 // sequence number of the next packet
		return e.source(1, func(ctx *core.OpContext, t0 int64) error {
			st.enter(next)
			p := ctx.NewPacket()
			fillRelay(p, next, t0, block.at(next))
			err := e.emitCounted(st, ctx, p)
			st.exit()
			if err == nil {
				next++
			}
			return err
		})
	}
}

// relayFunc is the body of the relay operator.
type relayFunc func(st *stage, ctx *core.OpContext, pk *packet.Packet) error

// forwardAll re-emits the inbound packet unchanged.
func forwardAll(st *stage, ctx *core.OpContext, pk *packet.Packet) error { return st.emit(ctx, pk) }

// buildRelay deploys the paper's Fig. 1 graph: sender and receiver on
// engine A, the relay on engine B, so latency needs no clock agreement.
func buildRelay(e *env, bridger core.Bridger, relay relayFunc) (*pipeline, error) {
	spec, err := neptune.NewGraph(e.w.name).
		Source("sender", 1).
		Processor("relay", 1).
		Processor("receiver", 1).
		Link("sender", "relay", "").
		Link("relay", "receiver", "").
		Build()
	if err != nil {
		return nil, err
	}
	cfg := neptune.DefaultConfig()
	cfg.LatencyTarget = e.w.target
	engines, err := newEngines(cfg, "A", "B")
	if err != nil {
		return nil, err
	}
	job, err := neptune.NewJob(spec, cfg)
	if err != nil {
		return nil, err
	}
	p := &pipeline{job: job, engines: engines}
	job.SetSource("sender", relaySource(e))
	job.SetProcessor("relay", func(int) core.Processor {
		st := e.newStage("relay", false)
		return core.ProcessorFunc(func(ctx *core.OpContext, pk *packet.Packet) error {
			if st.enter(-1) {
				st.cur.ID, _ = pk.Int64("seq") // a missing field fails at the receiver
			}
			err := relay(st, ctx, pk)
			st.exit()
			return err
		})
	})
	var check seqCheck
	job.SetProcessor("receiver", func(int) core.Processor {
		st := e.newStage("receiver", false)
		return core.ProcessorFunc(func(_ *core.OpContext, pk *packet.Packet) error {
			seq, err := pk.Int64("seq")
			if err != nil {
				return err
			}
			st.enter(seq)
			t0, err := pk.Int64("t0")
			if err != nil {
				return err
			}
			e.sink.arrive(t0)
			check.observe(seq)
			st.exit()
			return nil
		})
	})
	p.verify = func(emitted int64) (int64, error) { return check.result(emitted), nil }

	place := func(op string, _ int) int {
		if op == "relay" {
			return 1
		}
		return 0
	}
	if err := e.launchOn(job, engines, place, bridger); err != nil {
		return nil, err
	}
	return p, nil
}

// newEngines creates one engine per name with the job's config.
func newEngines(cfg core.Config, names ...string) ([]*core.Engine, error) {
	engines := make([]*core.Engine, len(names))
	for i, name := range names {
		eng, err := neptune.NewEngine(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", name, err)
		}
		engines[i] = eng
	}
	return engines, nil
}

// launchOn is Job.LaunchOn, timed.
func (e *env) launchOn(job *core.Job, engines []*core.Engine, place core.Placement, b core.Bridger) error {
	start := time.Now()
	sp := e.tr.begin("Job.LaunchOn", -1)
	err := job.LaunchOn(engines, place, b)
	e.tr.end(sp)
	e.launch = time.Since(start)
	return err
}

func tcpBridger() core.Bridger { return core.NewTCPBridger(transport.TCPOptions{}) }

func resilientBridger() core.Bridger {
	return core.NewResilientTCPBridger(transport.ResilientOptions{})
}

var relayRemote = []string{"sender", "relay"}

var relayWorkloads = []*workload{
	{
		name:      "relay_sat",
		why:       "the paper's headline relay at saturation over the in-process bridger: codec, pools, buffers, scheduler and dispatch do all the work, TCP, QoS and checkpointing none",
		pacedRate: 400_000,
		warmup:    2 * time.Second,
		build:     func(e *env) (*pipeline, error) { return buildRelay(e, nil, forwardAll) },
		gen:       genRelay,
		remoteOps: relayRemote,
	},
	{
		name:      "relay_sat_1p",
		why:       "relay_sat at GOMAXPROCS=1: the single-threaded baseline, where a change that buys throughput with goroutine parallelism must not lose",
		procs:     1,
		pacedRate: 250_000,
		warmup:    2 * time.Second,
		build:     func(e *env) (*pipeline, error) { return buildRelay(e, nil, forwardAll) },
		gen:       genRelay,
		remoteOps: relayRemote,
	},
	{
		name:      "relay_rate_tcp",
		why:       "open loop at 200 k pkts/s, a ninth of saturation, over resilient TCP with an 8 ms latency target: nothing queues, so flush timers, QoS control, the resilient writer and wake-ups set the latency",
		rate:      200_000,
		warmup:    4 * time.Second,
		lateLimit: time.Second,
		p99Limit:  50 * time.Millisecond,
		target:    8 * time.Millisecond,
		build:     func(e *env) (*pipeline, error) { return buildRelay(e, resilientBridger(), forwardAll) },
		gen:       genRelay,
		remoteOps: relayRemote,
	},
}
