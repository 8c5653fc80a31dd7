package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
)

// waitCount waits until the sink has processed at least want packets.
func waitCount(t *testing.T, s *collectSink, want int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for s.count.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d, waiting for %d", s.count.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResilientJobSurvivesLinkCutAndHeal is the acceptance test for the
// resilient transport wiring: a live TCP link between two engines is
// severed mid-job (twice — an abrupt cut, then a partition that also
// refuses re-dials before healing), and the job still completes with zero
// lost and zero duplicated packets at the sink. VerifyOrdering makes any
// loss, duplication, or reorder a hard job error.
func TestResilientJobSurvivesLinkCutAndHeal(t *testing.T) {
	const n = 20_000
	cfg := testConfig()
	e1, _ := NewEngine("res-1", cfg)
	e2, _ := NewEngine("res-2", cfg)
	src := &countingSource{n: n, payload: 64}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	place := func(op string, idx int) int {
		if op == "sink" {
			return 1
		}
		return 0
	}

	inj := chaos.New(7)
	bridger := NewResilientTCPBridger(transport.ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Dialer:      inj.Dial,
		// Withhold acks for the whole stream, so each cut lands with
		// frames still journaled and the heal must redeliver them.
		AckEvery:   2 * n,
		AckTimeout: 100 * time.Millisecond,
	})
	if err := j.LaunchOn([]*Engine{e1, e2}, place, bridger); err != nil {
		t.Fatal(err)
	}

	// Kill the live link mid-stream, let it recover, then partition it
	// (cut + refuse re-dials) and heal.
	waitReconnects := func(want uint64) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			var got uint64
			for _, h := range j.LinkHealth() {
				got += h.Reconnects
			}
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("stuck at %d reconnects, want %d", got, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitCount(t, sink, n/4)
	inj.CutAll()
	waitReconnects(1)
	waitCount(t, sink, n/2)
	inj.Partition()
	time.Sleep(50 * time.Millisecond)
	inj.Heal()
	waitReconnects(2)

	finishJob(t, j)
	sink.exactlyOnce(t, n)

	// The faults actually happened and the link actually recovered.
	health := j.LinkHealth()
	if len(health) == 0 {
		t.Fatal("resilient bridger reported no links")
	}
	var reconnects, redelivered uint64
	for _, h := range health {
		reconnects += h.Reconnects
		redelivered += h.Redelivered
	}
	if reconnects == 0 {
		t.Fatalf("no reconnects recorded: %+v", health)
	}
	if redelivered == 0 {
		t.Fatalf("no frames redelivered: %+v", health)
	}
	// Sender-engine metrics mirror the link counters.
	if e1.Metrics().Counter("transport.reconnects").Value() == 0 {
		t.Fatal("transport.reconnects metric not wired to sender engine")
	}
	st := inj.Stats()
	if st.CutConns == 0 || st.RefusedDials == 0 {
		t.Fatalf("injector faults did not land: %+v", st)
	}
}

// TestDedupRemoteDropsInjectedDuplicates exercises the engine-level packet
// dedup (Config.DedupRemote): frames duplicated below the engine — where
// the resilient link dedup cannot see them — must not reach operators
// twice.
func TestDedupRemoteDropsInjectedDuplicates(t *testing.T) {
	const n = 5_000
	cfg := testConfig()
	e1, _ := NewEngine("dup-1", cfg)
	e2, _ := NewEngine("dup-2", cfg)
	src := &countingSource{n: n, payload: 32}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	place := func(op string, idx int) int {
		if op == "sink" {
			return 1
		}
		return 0
	}
	bridger := &dupBridger{inner: NewTCPBridger(transport.TCPOptions{}), inj: chaos.New(11)}
	if err := j.LaunchOn([]*Engine{e1, e2}, place, bridger); err != nil {
		t.Fatal(err)
	}
	finishJob(t, j)
	sink.exactlyOnce(t, n)
	if e2.Metrics().Counter("packets_dup_dropped").Value() == 0 {
		t.Fatal("no duplicates dropped — fault injection did not engage")
	}
}

// dupBridger wraps every bridged transport in a Faulty that duplicates a
// quarter of all frames.
type dupBridger struct {
	inner Bridger
	inj   *chaos.Injector
}

func (b *dupBridger) Connect(from, to *Engine) (transport.Transport, error) {
	tr, err := b.inner.Connect(from, to)
	if err != nil {
		return nil, err
	}
	return &transport.Faulty{Inner: tr, Inj: b.inj, Dup: 0.25}, nil
}

func (b *dupBridger) Close() error { return b.inner.Close() }

// TestLinkHealthNilForPlainBridgers: only resilient bridgers track health.
func TestLinkHealthNilForPlainBridgers(t *testing.T) {
	const n = 200
	src := &countingSource{n: n}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	runToCompletion(t, j)
	if h := j.LinkHealth(); h != nil {
		t.Fatalf("in-process job reported link health: %+v", h)
	}
}

// TestJobSurfacesGaveUpLink: a link that exhausts its reconnect budget
// (MaxAttempts) lost data, and the job must say so — ErrGaveUp has to
// surface through Job.Err and Job.Stop, not stay buried in link health.
func TestJobSurfacesGaveUpLink(t *testing.T) {
	const n = 1_000_000 // far more than the dead link will ever deliver
	cfg := testConfig()
	cfg.VerifyOrdering = false // loss is the point of this test
	e1, _ := NewEngine("gu-1", cfg)
	e2, _ := NewEngine("gu-2", cfg)
	src := &countingSource{n: n}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	place := func(op string, idx int) int {
		if op == "sink" {
			return 1
		}
		return 0
	}
	inj := chaos.New(13)
	bridger := NewResilientTCPBridger(transport.ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		MaxAttempts: 3,
		// Shed keeps the source pumping while the link dies, so the test
		// exercises error reporting rather than backpressure.
		Policy: transport.DegradeShedOldest,
		Dialer: inj.Dial,
	})
	if err := j.LaunchOn([]*Engine{e1, e2}, place, bridger); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, 100)
	inj.Partition() // cut and refuse every re-dial: permanent outage

	deadline := time.Now().Add(20 * time.Second)
	for !errors.Is(j.Err(), transport.ErrGaveUp) {
		if time.Now().After(deadline) {
			t.Fatalf("Job.Err never surfaced ErrGaveUp; got %v", j.Err())
		}
		time.Sleep(time.Millisecond)
	}
	j.StopSources()
	if err := j.Stop(time.Second); err == nil {
		t.Fatal("Stop returned nil after a link gave up")
	}
	if err := j.Err(); !errors.Is(err, transport.ErrGaveUp) {
		t.Fatalf("post-stop Err = %v, want ErrGaveUp", err)
	}
}
