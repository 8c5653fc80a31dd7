package main

import (
	"syscall"
	"time"
)

// openLoop is the open-loop load schedule: packet k is due at k/rate after
// the start, whatever the system under test is doing. A generator that
// falls behind — because the engine parked it for a checkpoint, because
// Emit blocked, or because its own sleep overshot — emits everything that
// is due with the *original* due stamps, so the wait a stall imposes on
// later packets is counted in their latency. There is deliberately no
// burst cap (core.Throttle has one: it forgives the backlog and so hides
// the stall).
//
// The clock and the sleep are injected so the schedule is testable on a
// fake clock; times are nanoseconds since the clock's origin.
type openLoop struct {
	rate  float64 // packets per second
	start int64   // due time of packet 0
	next  int64   // first packet not yet emitted

	now   func() int64
	sleep func(time.Duration)

	// heldUntil is the latest due time known to have been delayed by the
	// system (a gap between calls or a blocked emit), not by the
	// generator; lag is recorded only for packets due after it.
	heldUntil int64
	lastExit  int64
	lag       *hist // generator lateness, ns; nil disables recording
}

// minSleep is the shortest sleep the generator asks for: sleeping once per
// packet at 200 k pkts/s would spend a CPU the engine needs on the
// generator's own system calls.
const minSleep = 100 * time.Microsecond

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep goes
// through the Go netpoller, whose timeout has millisecond granularity: on
// the baseline host every time.Sleep under 1 ms took 1.1 ms, which alone
// is a quarter of the latency the open-loop workloads measure. nanosleep
// overshoots by 60-70 µs there.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the next step find nothing due
}

// holdThreshold is the gap that marks the generator as held by the system
// rather than late by itself: the engine's pump re-enters Next within
// microseconds unless a pause gate, a flow hold or a blocked emit stopped it.
const holdThreshold = int64(time.Millisecond)

// due returns the due time of packet k.
func (g *openLoop) due(k int64) int64 {
	return g.start + int64(float64(k)*1e9/g.rate)
}

// dueBy returns how many packets of the schedule are due at or before t.
func (g *openLoop) dueBy(t int64) int64 {
	if t < g.start {
		return 0
	}
	return int64(float64(t-g.start)*g.rate/1e9) + 1
}

// step emits every packet that is due, in order, through emit(k, due), and
// sleeps until the next one is due when none is. It returns after one
// batch or one sleep so the caller's loop (the engine's source pump) can
// run its own checks between calls.
func (g *openLoop) step(emit func(k, due int64) error) error {
	now := g.now()
	if g.lastExit != 0 && now-g.lastExit > holdThreshold {
		g.heldUntil = now // the pump did not call back promptly: held by the engine
	}
	defer func() { g.lastExit = g.now() }()

	ready := g.dueBy(now)
	if ready <= g.next {
		wait := time.Duration(g.due(g.next) - now)
		if wait < minSleep {
			wait = minSleep
		}
		g.sleep(wait)
		now = g.now()
		ready = g.dueBy(now)
	}
	const refresh = 32 // packets emitted per clock read
	for since := 1; g.next < ready; since++ {
		k := g.next
		d := g.due(k)
		if g.lag != nil && d > g.heldUntil {
			g.lag.record(now - d)
		}
		g.next++
		if err := emit(k, d); err != nil {
			return err
		}
		if since%refresh == 0 {
			t := g.now()
			if t-now > holdThreshold {
				g.heldUntil = t // an emit blocked: backpressure, not the generator
			}
			now = t
		}
	}
	return nil
}
