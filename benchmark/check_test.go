package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

func TestSeqCheck(t *testing.T) {
	cases := []struct {
		name    string
		seen    []int64
		emitted int64
		failed  int64
	}{
		{"in order", []int64{0, 1, 2, 3}, 4, 0},
		{"lost in the middle", []int64{0, 1, 3}, 4, 1},
		{"duplicate", []int64{0, 1, 1, 2}, 3, 1},
		{"overtaken", []int64{0, 2, 1, 3}, 4, 2},
		{"tail never arrived", []int64{0, 1}, 5, 3},
		{"nothing arrived", nil, 2, 2},
	}
	for _, c := range cases {
		var chk seqCheck
		for _, s := range c.seen {
			chk.observe(s)
		}
		if got := chk.result(c.emitted); got != c.failed {
			t.Errorf("%s: %d failures, want %d", c.name, got, c.failed)
		}
	}
}

func TestWindowSumClosedForm(t *testing.T) {
	for i := int64(0); i < 100; i++ {
		var want float64
		for k := i - recoveryWindow + 1; k <= i; k++ {
			if k >= 0 {
				want += float64(k)
			}
		}
		if got := windowSum(i); got != want {
			t.Fatalf("windowSum(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestDroppingOperatorFailsCheck runs the relay with a relay operator that
// silently drops one packet in a thousand: the reference check must count
// the loss and the run must come out incorrect.
func TestDroppingOperatorFailsCheck(t *testing.T) {
	dropping := func(st *stage, ctx *core.OpContext, pk *packet.Packet) error {
		seq, err := pk.Int64("seq")
		if err != nil {
			return err
		}
		if seq%1000 == 999 {
			return nil // dropped: the engine recycles a packet that is not re-emitted
		}
		return st.emit(ctx, pk)
	}
	w := *findWorkload("relay_sat")
	w.build = func(e *env) (*pipeline, error) { return buildRelay(e, nil, dropping) }
	ps, err := measure(&w, smokeOpts, nil, 50_000, 0, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ps.emitted < 2000 {
		t.Fatalf("only %d packets emitted: the run is too short to drop any", ps.emitted)
	}
	if want := ps.emitted / 1000; ps.failed < want {
		t.Fatalf("reference check counted %d failures of %d packets, want at least %d", ps.failed, ps.emitted, want)
	}
	if got := ps.env.sink.count.Load(); got >= ps.emitted {
		t.Fatalf("%d of %d packets delivered through a dropping relay", got, ps.emitted)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 1000) // 1 µs .. 100 ms, uniform
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000 * 1000
		if got := h.quantile(q); got < 0.98*want || got > 1.02*want {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 2 %%", q, got, want)
		}
	}
	if got := h.quantile(1); got != 100_000*1000 {
		t.Errorf("quantile(1) = %v, want the maximum", got)
	}
	// Half the values lie above the median, by a quarter of the range on
	// average.
	want := 50_000.0 * 25_000 * 1000
	if got := h.above(h.quantile(0.5)); got < 0.97*want || got > 1.03*want {
		t.Errorf("above(median) = %.3g, want %.3g", got, want)
	}
}
