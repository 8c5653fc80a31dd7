package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/packet"
)

// Generator-lateness limits of the paced phases: the median lateness may
// be a fifth of the median latency, the 99th percentile of lateness half
// of the 99th percentile of latency. A sleeping generator that shares its
// CPUs with the engine wakes late whenever they are busy (baseline host,
// relay_rate_tcp: lag p50 0.1 ms and p99 0.8-1.7 ms against latencies of
// 3.7 and 6.5 ms; nanosleep alone overshoots by 0.2 ms at p99 there), so
// a tail bound of a fifth of the *median* latency is not reachable; see
// README.md. A pass outside either limit is not a result.
const (
	maxLagP50Share = 0.2
	maxLagP99Share = 0.5
)

// validate rejects a pass whose load generator, not the system under test,
// set the latencies.
func validate(ps *pass) error {
	if ps.lag.n == 0 {
		return nil
	}
	for _, c := range []struct {
		q, share float64
	}{{0.50, maxLagP50Share}, {0.99, maxLagP99Share}} {
		lag, limit := ps.lag.quantile(c.q), c.share*ps.lat.quantile(c.q)
		if lag > limit {
			return fmt.Errorf("%w: generator lag p%.0f %.3f ms exceeds %.0f%% of latency p%.0f (%.3f ms)",
				errInvalid, 100*c.q, lag/1e6, 100*c.share, 100*c.q, limit/1e6)
		}
	}
	return nil
}

// perLayerOf runs the traced passes, reads the program's counters, runs the
// layer kernels and fills r.PerLayer; un are the untraced passes of the
// same run, against which the tracing overhead is taken.
func perLayerOf(w *workload, opts runOpts, un passes, r *result) error {
	tr := newTracer()
	traced, err := runPasses(w, opts, tr)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if err := validate(traced.lat); err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	// ps is the pass the counters, spans and costs are read from: the
	// saturated one of a closed-loop workload. lat has the paced latencies.
	ps, lat := traced.cost, traced.lat
	v := map[string]float64{}
	budget := time.Duration(float64(kernelBudget) * opts.scale)
	pkts := float64(ps.packets())
	first, last := ps.cost[0], ps.cost[len(ps.cost)-1]
	rates, _ := ps.perSecond()
	rate := quartile(rates, 3)
	whole := float64(ps.emitted) // counters below cover the whole pass, not the window

	// Counts: the program's own exported counters, read after the pass.
	var bytesOut, batchesOut, switches, gets, hits float64
	for _, e := range ps.pipe.engines {
		m := e.Metrics()
		bytesOut += float64(m.Counter("bytes_out").Value())
		batchesOut += float64(m.Counter("batches_out").Value())
		switches += float64(e.ContextSwitches())
		st := e.PacketPoolStats()
		gets += float64(st.Gets)
		hits += float64(st.Hits)
	}
	var remoteEmitted float64
	for _, op := range w.remoteOps {
		remoteEmitted += float64(ps.pipe.job.OperatorCounter(op, ".emitted"))
	}
	if gets > 0 {
		v["pool.hit_rate"] = hits / gets
	}
	frameBytes := 64 << 10
	if batchesOut > 0 {
		v["buffer.pkts_per_flush"] = remoteEmitted / batchesOut
		frameBytes = int(bytesOut / batchesOut)
	}
	v["granules.switches_per_kpkt"] = switches / (whole / 1000)
	v["transport.wire_bytes_per_pkt"] = bytesOut / whole
	flow := ps.pipe.job.FlowHealth()
	v["backpressure.valve_closures"] = float64(flow.InboundGateClosures + flow.OutboundGateClosures)
	for _, l := range ps.pipe.job.LinkHealth() {
		v["transport.redelivered_frames"] += float64(l.Redelivered)
		v["transport.reconnects"] += float64(l.Reconnects)
	}
	qos := lat.pipe.job.LatencyHealth()
	v["qos.escalations"] = float64(qos.Escalations)
	v["qos.relaxations"] = float64(qos.Relaxations)
	v["qos.chained_links"] = float64(qos.ChainedLinks)
	if w.target > 0 {
		for i, h := range lat.env.sink.seconds {
			if h.n > 0 && h.quantile(0.99) <= float64(w.target) {
				v["qos.converge_s"] = float64(i + 1)
				break
			}
		}
	}
	rec := ps.pipe.job.RecoveryHealth()
	if rec.Restarts > 0 {
		v["core.restore_ms"] = float64(rec.RestoreNs) / 1e6 / float64(rec.Restarts)
		v["core.replayed_pkts_per_kill"] = float64(rec.ReplayedPackets) / float64(rec.Restarts)
	}
	if rec.Epoch > 0 {
		v["checkpoint.bytes_per_epoch"] = float64(rec.CheckpointBytes) / float64(rec.Epoch)
	}
	for name, key := range map[string]string{
		"recovery.time_ms":        "recovery_time_ms",
		"checkpoint.pause_ms":     "checkpoint_pause_ms",
		"core.kill_to_restart_ms": "kill_to_restart_ms",
	} {
		v[name] = median(append([]float64(nil), ps.pipe.events[key]...))
	}

	// Timed calls and spans: the harness's own wrappers.
	v["core.launch_ms"] = ms(ps.launch)
	v["core.drain_ms"] = ms(ps.drain)
	passNs := float64(ps.end.Sub(ps.env.base))
	var srcEmits, srcEmitNs, srcBlockedNs, sources float64
	for _, st := range tr.stages {
		if st.env != ps.env {
			continue
		}
		if st.sampled > 0 {
			// Self time of the sampled calls, scaled up to all calls.
			self := float64(st.selfNs) * float64(st.calls) / float64(st.sampled)
			v["op."+st.op+".busy_share"] += self / passNs / float64(ps.pipe.job.Instances(st.op))
		}
		if st.everyEmit && st.emitNs.n > 0 {
			sources++
			srcEmits += float64(st.emitNs.n)
			srcEmitNs += float64(st.emitSum)
			srcBlockedNs += st.emitNs.above(st.emitNs.quantile(0.50))
		}
	}
	if srcEmits > 0 {
		v["core.emit_ns_per_pkt"] = srcEmitNs / srcEmits
		v["source.blocked_share"] = srcBlockedNs / passNs / sources
	}

	// Runtime cost of the traced pass.
	if total := last.totalCPU - first.totalCPU; total > 0 {
		v["runtime.gc_cpu_frac"] = (last.gcCPU - first.gcCPU) / total
	}
	v["runtime.alloc_bytes_per_pkt"] = float64(last.bytes-first.bytes) / pkts
	v["runtime.heap_peak_mb"] = ps.peakHeapMB
	v["runtime.goroutines_peak"] = float64(ps.peakGoroutines)
	v["gen.lag_p99_ms"] = lat.lag.quantile(0.99) / 1e6
	v["gen.cpu_share"] = kernelGenerator(budget, w, opts.seed) * rate / 1e9

	// Tracing overhead on the workload's own headline number.
	if w.rate > 0 {
		v["trace.overhead_frac"] = lat.latency(0.50)/un.lat.latency(0.50) - 1
	} else {
		unRates, _ := un.cost.perSecond()
		v["trace.overhead_frac"] = 1 - rate/quartile(unRates, 3)
	}

	// Kernels: each layer alone, on this workload's packets and frame size.
	sample := samplePackets(w, opts.seed, kernelBatch)
	kernelPacket(budget, sample, v)
	kernelPool(budget, frameBytes, v)
	kernelBuffer(budget, sample, v)
	var enc packet.Encoder
	frame := enc.EncodeBatch(nil, sample)
	for len(frame) < frameBytes {
		frame = append(frame, frame...)
	}
	frame = frame[:frameBytes]
	for _, k := range []func() error{
		func() error { return kernelGranules(v) },
		func() error { return kernelQueue(v) },
		func() error { return kernelTransports(frame, v) },
		func() error { return kernelDispatch(w, opts.seed, v) },
		func() error { return kernelOperators(budget, opts.seed, v) },
		func() error { return kernelControl(budget, v) },
	} {
		if err := k(); err != nil {
			return err
		}
	}
	if ps.pipe.store != nil {
		if err := kernelCheckpoint(budget, ps.pipe.store, outDir(), v); err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			return err
		}
	}

	r.PerLayer = map[string]reported{}
	for _, m := range perLayer {
		r.PerLayer[m.name] = reported{Value: v[m.name], Unit: m.unit, Better: m.better}
	}
	r.Samples["traced_spans"] = int64(tr.ids.Load())
	return tr.write(filepath.Join(outDir(), w.name+".trace.json"))
}
