package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	neptune "repro"
	"repro/internal/backpressure"
	"repro/internal/buffer"
	"repro/internal/checkpoint"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/debs"
	"repro/internal/granules"
	"repro/internal/packet"
	"repro/internal/pool"
	"repro/internal/transport"
	"repro/internal/window"
)

// The layer kernels call one layer alone, through its exported functions,
// with packets and frames as the workload's own generator makes them. They
// run after the traced pass, in the same process, and cost a few hundred
// milliseconds each at most: they are the per-layer ledger, not results.

// kernelBudget is how long a timed kernel loop runs in a real run.
const kernelBudget = 100 * time.Millisecond

// kernelBatch is the number of packets the packet-level kernels work on.
const kernelBatch = 1024

// timeLoop calls body, which performs n operations per call, until the
// budget is spent and returns nanoseconds per operation.
func timeLoop(budget time.Duration, n int, body func()) float64 {
	body() // warm caches and grow reused buffers before the clock starts
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < budget {
		body()
		calls++
	}
	return float64(time.Since(start)) / float64(calls*n)
}

// samplePackets returns n packets as the workload's generator fills them.
func samplePackets(w *workload, seed int64, n int) []*packet.Packet {
	fill := w.gen(seed)
	out := make([]*packet.Packet, n)
	for k := range out {
		out[k] = new(packet.Packet)
		fill(out[k], int64(k))
	}
	return out
}

// kernelPacket measures the codec on one batch: encode, decode into
// pooled packets, allocations per decoded packet and wire size.
func kernelPacket(budget time.Duration, pkts []*packet.Packet, out map[string]float64) {
	var enc packet.Encoder
	var dec packet.Decoder
	var wire []byte
	out["packet.encode_ns_per_pkt"] = timeLoop(budget, len(pkts), func() {
		wire = enc.EncodeBatch(wire[:0], pkts)
	})
	out["packet.wire_bytes_per_pkt"] = float64(len(wire)) / float64(len(pkts))

	pp := pool.NewPacketPool(4*len(pkts), true)
	var dst []*packet.Packet
	decode := func() {
		var err error
		dst, _, err = dec.DecodeBatchAppend(wire, pp.GetBatch, dst[:0])
		if err != nil {
			panic(fmt.Sprintf("decode of a batch this program encoded: %v", err))
		}
		pp.PutBatch(dst)
	}
	out["packet.decode_ns_per_pkt"] = timeLoop(budget, len(pkts), decode)
	const rounds = 50
	before := readUsage().allocs
	for i := 0; i < rounds; i++ {
		decode()
	}
	out["packet.decode_allocs_per_pkt"] = float64(readUsage().allocs-before) / float64(rounds*len(pkts))
}

// kernelPool measures one packet's round trip through the packet pool
// plus its share of an encode buffer's round trip through the buffer pool.
func kernelPool(budget time.Duration, frameBytes int, out map[string]float64) {
	pp := pool.NewPacketPool(65536, true)
	bp := pool.NewBufferPool(256, 4<<20, true)
	var dst []*packet.Packet
	out["pool.get_put_ns_per_pkt"] = timeLoop(budget, kernelBatch, func() {
		dst = pp.GetBatch(dst[:0], kernelBatch)
		buf := bp.Get(frameBytes)
		bp.Put(buf)
		pp.PutBatch(dst)
	})
}

// kernelBuffer measures CapacityBuffer.Add with a flusher that does nothing.
func kernelBuffer(budget time.Duration, pkts []*packet.Packet, out map[string]float64) {
	cfg := neptune.DefaultConfig()
	b := buffer.New(cfg.BufferSize, 0, func([]*packet.Packet, int, buffer.FlushReason) {})
	defer b.Close()
	out["buffer.add_ns_per_pkt"] = timeLoop(budget, len(pkts), func() {
		for _, p := range pkts {
			if err := b.Add(p); err != nil {
				panic(fmt.Sprintf("add to an open buffer: %v", err))
			}
		}
	})
}

// kernelTask is a granules task whose body is supplied by the kernel.
type kernelTask struct {
	id   string
	body func(rc *granules.RunContext)
}

func (t *kernelTask) ID() string                            { return t.id }
func (t *kernelTask) Init(*granules.RunContext) error       { return nil }
func (t *kernelTask) Close() error                          { return nil }
func (t *kernelTask) Execute(rc *granules.RunContext) error { t.body(rc); return nil }

// kernelGranules measures the scheduler: the wake-up of an idle resource
// (NotifyData to the task body) and the cost of one execution when eight
// tasks keep the run queues full.
func kernelGranules(out map[string]float64) error {
	idle := granules.NewResource("kernel-idle", 0)
	ran := make(chan time.Time, 1)
	if err := idle.Register(&kernelTask{id: "t", body: func(*granules.RunContext) { ran <- time.Now() }}, granules.DataDriven{}); err != nil {
		return err
	}
	if err := idle.Deploy(); err != nil {
		return err
	}
	const wakeups = 300
	lat := make([]float64, 0, wakeups)
	for i := 0; i < wakeups; i++ {
		time.Sleep(200 * time.Microsecond) // let the workers park: the resource must be idle
		start := time.Now()
		if err := idle.NotifyData("t"); err != nil {
			return err
		}
		lat = append(lat, float64((<-ran).Sub(start))/1e3)
	}
	if err := idle.Terminate(); err != nil {
		return err
	}
	sort.Float64s(lat)
	out["granules.notify_to_run_us_p50"] = lat[len(lat)/2]

	const tasks, perTask = 8, 50_000
	busy := granules.NewResource("kernel-flood", 0)
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		id := fmt.Sprintf("t%d", i)
		n := 0
		err := busy.Register(&kernelTask{id: id, body: func(rc *granules.RunContext) {
			n++
			switch {
			case n < perTask:
				_ = rc.Resource().NotifyData(id) // fails only after Terminate, which waits for wg
			case n == perTask:
				wg.Done()
			}
		}}, granules.DataDriven{})
		if err != nil {
			return err
		}
	}
	if err := busy.Deploy(); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < tasks; i++ {
		if err := busy.NotifyData(fmt.Sprintf("t%d", i)); err != nil {
			return err
		}
	}
	wg.Wait()
	out["granules.exec_ns_per_task"] = float64(time.Since(start)) / float64(tasks*perTask)
	return busy.Terminate()
}

// kernelQueue measures one Push and one Pop of the watermark queue across
// two goroutines.
func kernelQueue(out map[string]float64) error {
	cfg := neptune.DefaultConfig()
	q, err := backpressure.NewQueue[int](cfg.OutLowWatermark, cfg.OutHighWatermark)
	if err != nil {
		return err
	}
	const items = 300_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < items; i++ {
			if _, ok := q.Pop(); !ok {
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < items; i++ {
		if err := q.Push(i, 64); err != nil {
			return err
		}
	}
	<-done
	out["backpressure.queue_push_pop_ns"] = float64(time.Since(start)) / items
	q.Close()
	return nil
}

// frameCounter is the counting handler the transport kernels send to.
type frameCounter struct{ n atomic.Int64 }

func (c *frameCounter) handle(transport.Frame) { c.n.Add(1) }

func (c *frameCounter) wait(want int64) error {
	deadline := time.Now().Add(20 * time.Second)
	for c.n.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport kernel: %d of %d frames arrived", c.n.Load(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// kernelFrames is how many frames a transport kernel sends: enough to
// amortise connection set-up, bounded so the largest frames stay cheap.
func kernelFrames(frameBytes int) int {
	n := (32 << 20) / frameBytes
	if n < 200 {
		n = 200
	}
	if n > 20_000 {
		n = 20_000
	}
	return n
}

// sendAll sends the frame n times and waits for the last to be handled.
func sendAll(n int, c *frameCounter, send func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := send(); err != nil {
			return 0, err
		}
	}
	if err := c.wait(int64(n)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// kernelTransports sends frames of the workload's mean size over each of
// the three transports to a counting handler, on loopback for the two TCP
// ones. The owned (zero-copy) send is used where the engine would use it.
func kernelTransports(frame []byte, out map[string]float64) error {
	n := kernelFrames(len(frame))
	cfg := neptune.DefaultConfig()

	var ic frameCounter
	inproc, err := transport.NewInproc(ic.handle, cfg.OutLowWatermark, cfg.OutHighWatermark)
	if err != nil {
		return err
	}
	d, err := sendAll(n, &ic, func() error { return inproc.SendOwned(0, frame, nil) })
	if cerr := inproc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("inproc kernel: %w", err)
	}
	out["transport.inproc.send_ns_per_frame"] = float64(d) / float64(n)

	var tc frameCounter
	ln, err := transport.Listen("127.0.0.1:0", tc.handle, transport.TCPOptions{})
	if err != nil {
		return err
	}
	tcp, err := transport.Dial(ln.Addr(), nil, transport.TCPOptions{})
	if err != nil {
		ln.Close()
		return err
	}
	d, err = sendAll(n, &tc, func() error { return tcp.SendOwned(0, frame, nil) })
	if cerr := tcp.Close(); err == nil {
		err = cerr
	}
	if cerr := ln.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("tcp kernel: %w", err)
	}
	out["transport.tcp.send_ns_per_frame"] = float64(d) / float64(n)
	out["transport.tcp.mb_per_s"] = float64(n) * float64(len(frame)) / 1e6 / d.Seconds()

	var rc frameCounter
	rln, err := transport.ListenResilient("127.0.0.1:0", rc.handle, transport.ResilientOptions{})
	if err != nil {
		return err
	}
	res, err := transport.DialResilient(rln.Addr(), nil, transport.ResilientOptions{})
	if err != nil {
		rln.Close()
		return err
	}
	before := readUsage().allocs
	d, err = sendAll(n, &rc, func() error { return res.Send(0, frame) })
	allocs := readUsage().allocs - before
	if cerr := res.Close(); err == nil && !errors.Is(cerr, transport.ErrClosed) {
		err = cerr
	}
	if cerr := rln.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resilient kernel: %w", err)
	}
	out["transport.resilient.send_ns_per_frame"] = float64(d) / float64(n)
	out["transport.resilient.allocs_per_frame"] = float64(allocs) / float64(n)
	return nil
}

// kernelDispatch measures Engine.Dispatch of pre-encoded batches into a
// counting sink. The frames carry rising sequence numbers, as a live link
// would, so the engine's duplicate filter passes them.
func kernelDispatch(w *workload, seed int64, out map[string]float64) error {
	const perFrame = 512
	fill := w.gen(seed)
	probe := new(packet.Packet)
	fill(probe, 0)
	frames := (16 << 20) / (probe.WireSize() * perFrame)
	if frames < 8 {
		frames = 8
	}
	if frames > 400 {
		frames = 400
	}
	var enc packet.Encoder
	batch := make([]*packet.Packet, perFrame)
	for i := range batch {
		batch[i] = new(packet.Packet)
	}
	encoded := make([][]byte, frames)
	for f := range encoded {
		for i, p := range batch {
			k := int64(f*perFrame + i)
			p.Reset()
			fill(p, k)
			p.Seq = uint64(k)
		}
		encoded[f] = enc.EncodeBatch(nil, batch)
	}

	spec, err := neptune.NewGraph("kernel-dispatch").
		Source("idle", 1).
		Processor("count", 1).
		Link("idle", "count", "").
		Build()
	if err != nil {
		return err
	}
	cfg := neptune.DefaultConfig()
	engines, err := newEngines(cfg, "A", "B")
	if err != nil {
		return err
	}
	job, err := neptune.NewJob(spec, cfg)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	job.SetSource("idle", func(int) core.Source {
		return core.SourceFunc(func(*core.OpContext) error {
			<-stop // the kernel, not the source, feeds the sink
			return io.EOF
		})
	})
	var got atomic.Int64
	job.SetProcessor("count", func(int) core.Processor {
		return core.ProcessorFunc(func(*core.OpContext, *packet.Packet) error {
			got.Add(1)
			return nil
		})
	})
	place := func(op string, _ int) int {
		if op == "count" {
			return 1
		}
		return 0
	}
	if err := job.LaunchOn(engines, place, nil); err != nil {
		return err
	}
	total := int64(frames * perFrame)
	start := time.Now()
	for _, payload := range encoded {
		engines[1].Dispatch(transport.Frame{Channel: 0, Payload: payload})
	}
	deadline := start.Add(20 * time.Second)
	for got.Load() < total && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
	elapsed := time.Since(start)
	arrived := got.Load()
	close(stop)
	if err := job.Stop(10 * time.Second); err != nil {
		return fmt.Errorf("dispatch kernel: %w", err)
	}
	if arrived != total {
		return fmt.Errorf("dispatch kernel: %d of %d packets reached the sink", arrived, total)
	}
	out["core.dispatch_ns_per_pkt"] = float64(elapsed) / float64(total)
	return nil
}

// kernelOperators measures the two stateful operator bodies alone: the
// DEBS monitor on projected readings and the sliding window's Add.
func kernelOperators(budget time.Duration, seed int64, out map[string]float64) error {
	g := newMfgGenerator(seed, 0)
	pkts := make([]*packet.Packet, 4096)
	for i := range pkts {
		pkts[i] = new(packet.Packet)
		debs.FillPacket(pkts[i], g.Next())
	}
	mon := debs.NewMonitor(mfgWindow)
	var obsErr error
	out["debs.observe_ns_per_pkt"] = timeLoop(budget, len(pkts), func() {
		for _, p := range pkts {
			if _, err := mon.Observe(p); err != nil {
				obsErr = err
			}
		}
	})
	if obsErr != nil {
		return obsErr
	}
	win, err := window.NewSlidingCount(recoveryWindow)
	if err != nil {
		return err
	}
	out["window.add_ns"] = timeLoop(budget, 4096, func() {
		for i := 0; i < 4096; i++ {
			win.Add(float64(i))
		}
	})
	return nil
}

// kernelCheckpoint measures the snapshot codec and the two stores on the
// newest snapshot the run left behind.
func kernelCheckpoint(budget time.Duration, store checkpoint.Store, scratch string, out map[string]float64) error {
	snap, err := checkpoint.Latest(store)
	if err != nil {
		return fmt.Errorf("checkpoint kernel: %w", err)
	}
	var data []byte
	var kerr error
	out["checkpoint.encode_us"] = timeLoop(budget, 1, func() {
		if data, err = checkpoint.Encode(snap); err != nil {
			kerr = err
		}
	}) / 1e3
	out["checkpoint.decode_us"] = timeLoop(budget, 1, func() {
		if _, err := checkpoint.Decode(data); err != nil {
			kerr = err
		}
	}) / 1e3
	mem := checkpoint.NewMemStore(0)
	epoch := uint64(0)
	out["checkpoint.save_us.mem"] = timeLoop(budget, 1, func() {
		epoch++
		if err := mem.Save(epoch, data); err != nil {
			kerr = err
		}
	}) / 1e3
	dir := filepath.Join(scratch, "checkpoint-kernel")
	defer os.RemoveAll(dir)
	file, err := checkpoint.NewFileStore(dir, 0)
	if err != nil {
		return err
	}
	out["checkpoint.save_us.file"] = timeLoop(budget, 1, func() {
		epoch++
		if err := file.Save(epoch, data); err != nil {
			kerr = err
		}
	}) / 1e3
	return kerr
}

// kernelControl measures the control plane: a heartbeat published to four
// subscribers, and its trip through the wire codec.
func kernelControl(budget time.Duration, out map[string]float64) error {
	bus := control.NewBus()
	var seen atomic.Int64
	for i := 0; i < 4; i++ {
		cancel := bus.Subscribe(func(control.Message) { seen.Add(1) }, control.KindHeartbeat)
		defer cancel()
	}
	beat := control.Message{Kind: control.KindHeartbeat, Origin: "mid", Nanos: 1, Seq: 1}
	out["control.publish_ns"] = timeLoop(budget, 1, func() { bus.Publish(beat) })
	var buf []byte
	var kerr error
	out["control.codec_ns"] = timeLoop(budget, 1, func() {
		var err error
		if buf, err = control.AppendEncode(buf[:0], beat); err != nil {
			kerr = err
			return
		}
		if _, err = control.Decode(buf); err != nil {
			kerr = err
		}
	})
	return kerr
}

// kernelGenerator measures the load generator alone: filling pooled
// packets and handing them straight back, with no engine behind it.
func kernelGenerator(budget time.Duration, w *workload, seed int64) float64 {
	fill := w.gen(seed)
	pp := pool.NewPacketPool(65536, true)
	k := int64(0)
	return timeLoop(budget, kernelBatch, func() {
		for i := 0; i < kernelBatch; i++ {
			p := pp.Get()
			fill(p, k)
			k++
			pp.Put(p)
		}
	})
}
