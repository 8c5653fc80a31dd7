package graph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestShuffleUniformity(t *testing.T) {
	s := NewShuffle(1)
	const n, trials = 8, 80000
	counts := make([]int, n)
	var dst []int
	p := &packet.Packet{}
	for i := 0; i < trials; i++ {
		dst = s.Route(p, n, dst[:0])
		if len(dst) != 1 || dst[0] < 0 || dst[0] >= n {
			t.Fatalf("Route = %v", dst)
		}
		counts[dst[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("instance %d got %d of %d (want ~%v)", i, c, trials, want)
		}
	}
}

func TestShuffleSingleInstance(t *testing.T) {
	s := NewShuffle(0)
	dst := s.Route(&packet.Packet{}, 1, nil)
	if len(dst) != 1 || dst[0] != 0 {
		t.Fatalf("Route(n=1) = %v", dst)
	}
	if s.Name() != "shuffle" {
		t.Fatal("name")
	}
}

func TestShuffleConcurrentSafety(t *testing.T) {
	s := NewShuffle(7)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []int
			p := &packet.Packet{}
			for i := 0; i < 10000; i++ {
				dst = s.Route(p, 16, dst[:0])
				if dst[0] < 0 || dst[0] >= 16 {
					t.Error("out of range")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRoundRobinExactBalance(t *testing.T) {
	r := &RoundRobin{}
	const n = 5
	counts := make([]int, n)
	var dst []int
	p := &packet.Packet{}
	for i := 0; i < n*100; i++ {
		dst = r.Route(p, n, dst[:0])
		counts[dst[0]]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("instance %d got %d, want exactly 100", i, c)
		}
	}
	if r.Name() != "round-robin" {
		t.Fatal("name")
	}
	if got := r.Route(p, 1, nil); got[0] != 0 {
		t.Fatal("n=1 shortcut")
	}
}

func TestBroadcastAllInstances(t *testing.T) {
	b := Broadcast{}
	dst := b.Route(&packet.Packet{}, 4, nil)
	if len(dst) != 4 {
		t.Fatalf("Route = %v", dst)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("Route = %v", dst)
		}
	}
	if b.Name() != "broadcast" {
		t.Fatal("name")
	}
}

func TestFieldsDeterminism(t *testing.T) {
	f := &Fields{Keys: []string{"sensor"}}
	mk := func(id int64) *packet.Packet {
		p := &packet.Packet{}
		p.AddInt64("sensor", id)
		return p
	}
	var a, b []int
	for i := 0; i < 100; i++ {
		a = f.Route(mk(42), 7, a[:0])
		b = f.Route(mk(42), 7, b[:0])
		if a[0] != b[0] {
			t.Fatal("fields partitioner not deterministic")
		}
	}
	if f.Name() != "fields:sensor" {
		t.Fatalf("Name = %q", f.Name())
	}
}

func TestFieldsDistributesAcrossKeys(t *testing.T) {
	f := &Fields{Keys: []string{"id"}}
	const n = 8
	seen := make(map[int]bool)
	var dst []int
	for id := int64(0); id < 200; id++ {
		p := &packet.Packet{}
		p.AddInt64("id", id)
		dst = f.Route(p, n, dst[:0])
		seen[dst[0]] = true
	}
	if len(seen) < n-1 {
		t.Fatalf("200 keys hit only %d of %d instances", len(seen), n)
	}
}

func TestFieldsAllTypes(t *testing.T) {
	// Each field type must hash without panicking and deterministically.
	mk := func() *packet.Packet {
		p := &packet.Packet{}
		p.AddBool("b", true)
		p.AddInt32("i32", -7)
		p.AddInt64("i64", 1<<40)
		p.AddFloat32("f32", 2.5)
		p.AddFloat64("f64", -0.25)
		p.AddString("s", "key")
		p.AddBytes("by", []byte{1, 2})
		return p
	}
	f := &Fields{Keys: []string{"b", "i32", "i64", "f32", "f64", "s", "by", "missing"}}
	a := f.Route(mk(), 13, nil)
	b := f.Route(mk(), 13, nil)
	if a[0] != b[0] {
		t.Fatal("multi-type hash not deterministic")
	}
}

func TestFieldsMissingKeyStable(t *testing.T) {
	f := &Fields{Keys: []string{"absent"}}
	p := &packet.Packet{}
	a := f.Route(p, 5, nil)
	b := f.Route(p, 5, nil)
	if a[0] != b[0] {
		t.Fatal("missing-field hash not stable")
	}
}

func TestPartitionerTotalityProperty(t *testing.T) {
	// Property: every scheme returns >= 1 destination, all within range.
	parts := []Partitioner{
		NewShuffle(3), &RoundRobin{}, Broadcast{}, &Fields{Keys: []string{"k"}},
	}
	f := func(key int64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		p := &packet.Packet{}
		p.AddInt64("k", key)
		for _, part := range parts {
			dst := part.Route(p, n, nil)
			if len(dst) == 0 {
				return false
			}
			for _, d := range dst {
				if d < 0 || d >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResolvePartitioner(t *testing.T) {
	for _, spec := range []string{"shuffle", "round-robin", "broadcast", "fields:a,b"} {
		p, err := ResolvePartitioner(spec)
		if err != nil || p == nil {
			t.Errorf("ResolvePartitioner(%q) = %v, %v", spec, p, err)
		}
	}
	if _, err := ResolvePartitioner("nonsense"); err == nil {
		t.Error("unknown partitioner resolved")
	}
	if _, err := ResolvePartitioner("fields"); err == nil {
		t.Error("fields without argument resolved")
	}
	if _, err := ResolvePartitioner("fields:"); err == nil {
		t.Error("fields with empty argument resolved")
	}
}

// customPasses numbers the passes of TestRegisterPartitionerCustom. The
// registry is process-global, so each pass (go test -count=N) registers
// its own name.
var customPasses atomic.Int64

func TestRegisterPartitionerCustom(t *testing.T) {
	name := fmt.Sprintf("always-zero-%d", customPasses.Add(1))
	called := false
	err := RegisterPartitioner(name, func(arg string) (Partitioner, error) {
		called = true
		return &constPartitioner{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ResolvePartitioner(name)
	if err != nil || !called {
		t.Fatalf("custom scheme: %v (called=%v)", err, called)
	}
	if got := p.Route(&packet.Packet{}, 9, nil); got[0] != 0 {
		t.Fatalf("Route = %v", got)
	}
	// Duplicate and invalid names rejected.
	if err := RegisterPartitioner(name, nil); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterPartitioner("with:colon", nil); err == nil {
		t.Error("colon name accepted")
	}
	if err := RegisterPartitioner("", nil); err == nil {
		t.Error("empty name accepted")
	}
}

type constPartitioner struct{}

func (*constPartitioner) Name() string { return "always-zero" }
func (*constPartitioner) Route(_ *packet.Packet, n int, dst []int) []int {
	return append(dst, 0)
}

func BenchmarkShuffleRoute(b *testing.B) {
	s := NewShuffle(1)
	p := &packet.Packet{}
	var dst []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = s.Route(p, 16, dst[:0])
	}
}

func BenchmarkFieldsRoute(b *testing.B) {
	f := &Fields{Keys: []string{"sensor"}}
	p := &packet.Packet{}
	p.AddInt64("sensor", 12345)
	var dst []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = f.Route(p, 16, dst[:0])
	}
}
