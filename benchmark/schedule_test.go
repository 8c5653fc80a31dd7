package main

import (
	"testing"
	"time"
)

// fakeClock is the schedule's clock and sleep in one: sleeping advances it
// by the time asked for plus a fixed overshoot.
type fakeClock struct {
	t         int64
	overshoot time.Duration
	sleeps    int
}

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) sleep(d time.Duration) {
	c.sleeps++
	c.t += int64(d + c.overshoot)
}

type emitted struct{ k, due, at int64 }

func newTestSchedule(c *fakeClock, rate float64) (*openLoop, *[]emitted) {
	return &openLoop{rate: rate, start: c.t, now: c.now, sleep: c.sleep, lag: new(hist)}, new([]emitted)
}

func record(c *fakeClock, log *[]emitted) func(k, due int64) error {
	return func(k, due int64) error {
		*log = append(*log, emitted{k, due, c.t})
		return nil
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	c := &fakeClock{t: 5_000_000}
	g, log := newTestSchedule(c, 1000) // one packet per millisecond
	for len(*log) < 100 {
		if err := g.step(record(c, log)); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range *log {
		if e.k != int64(i) {
			t.Fatalf("emission %d carries sequence %d", i, e.k)
		}
		if want := int64(5_000_000 + i*1_000_000); e.due != want {
			t.Fatalf("packet %d due at %d, want %d", i, e.due, want)
		}
		if e.at < e.due {
			t.Fatalf("packet %d emitted at %d, before it was due at %d", i, e.at, e.due)
		}
	}
	if c.sleeps == 0 {
		t.Fatal("the generator never slept: it must wait for packets to fall due")
	}
}

func TestOpenLoopCatchUpKeepsDueStamps(t *testing.T) {
	c := &fakeClock{t: 1}
	g, log := newTestSchedule(c, 1000)
	for len(*log) < 10 {
		if err := g.step(record(c, log)); err != nil {
			t.Fatal(err)
		}
	}
	// The engine holds the source for 50 ms: a checkpoint, a recovery.
	before := len(*log)
	c.t += int64(50 * time.Millisecond)
	stalledAt := c.t
	if err := g.step(record(c, log)); err != nil {
		t.Fatal(err)
	}
	burst := (*log)[before:]
	// No burst cap: everything that fell due during the stall goes out in
	// this one step (core.Throttle would have forgiven all but its burst).
	if len(burst) < 50 {
		t.Fatalf("one step after a 50 ms stall emitted %d packets, want the whole backlog of 50", len(burst))
	}
	for i, e := range burst {
		k := int64(before + i)
		if e.k != k || e.due != 1+k*1_000_000 {
			t.Fatalf("backlog packet %d: sequence %d due %d, want sequence %d due %d", i, e.k, e.due, k, 1+k*1_000_000)
		}
	}
	if first := burst[0]; stalledAt-first.due < int64(48*time.Millisecond) {
		t.Fatalf("first backlog packet stamped %d at %d: the stall must show in its latency", first.due, stalledAt)
	}
	// The stall is the engine's, not the generator's: it is no lag sample.
	if max := time.Duration(g.lag.max); max > 2*time.Millisecond {
		t.Fatalf("generator lag records %v: the engine's stall was charged to the generator", max)
	}
}

func TestOpenLoopRecordsOwnLateness(t *testing.T) {
	c := &fakeClock{t: 1, overshoot: 300 * time.Microsecond}
	g, log := newTestSchedule(c, 10_000)
	for len(*log) < 1000 {
		if err := g.step(record(c, log)); err != nil {
			t.Fatal(err)
		}
	}
	if g.lag.n == 0 {
		t.Fatal("no lag recorded")
	}
	// Every wake-up is 300 µs late, so the latest packet of each batch is
	// about that late and the earliest about a sleep later.
	if p99 := time.Duration(g.lag.quantile(0.99)); p99 < 300*time.Microsecond || p99 > time.Millisecond {
		t.Fatalf("lag p99 %v with a 300 µs oversleep", p99)
	}
}

func TestDueByMatchesDue(t *testing.T) {
	g := &openLoop{rate: 200_000, start: 12_345}
	for _, k := range []int64{0, 1, 2, 199_999, 200_000, 3_999_999} {
		if got := g.dueBy(g.due(k)); got != k+1 {
			t.Fatalf("dueBy(due(%d)) = %d, want %d", k, got, k+1)
		}
		if got := g.dueBy(g.due(k) - 1); got != k {
			t.Fatalf("dueBy(due(%d)-1) = %d, want %d", k, got, k)
		}
	}
}
