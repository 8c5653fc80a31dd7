package packet_test

import (
	"testing"

	"repro/internal/debs"
	"repro/internal/packet"
)

// The layer pins: a warmed Decoder and a reused Encoder do their whole
// batch without allocating, on the two packet shapes the engine's
// workloads send. A regression here shows up as allocs_per_pkt and GC
// time end to end.

const pinBatch = 64

// relayBatch returns packets shaped like the relay workload's: a sequence
// number, a send timestamp and a 50-byte payload.
func relayBatch() []*packet.Packet {
	payload := make([]byte, 50)
	ps := make([]*packet.Packet, pinBatch)
	for i := range ps {
		p := &packet.Packet{StreamID: 1, Seq: uint64(i)}
		p.AddInt64("seq", int64(i)).AddInt64("t0", int64(i)*1000).AddBytes("payload", payload)
		ps[i] = p
	}
	return ps
}

// debsBatch returns packets shaped like the manufacturing workload's
// ingest output: a machine id, a timestamp and the 66-field DEBS reading.
func debsBatch() []*packet.Packet {
	g := debs.NewGenerator(1)
	ps := make([]*packet.Packet, pinBatch)
	for i := range ps {
		p := &packet.Packet{StreamID: 2, Seq: uint64(i)}
		p.AddInt64("machine", 3).AddInt64("t0", int64(i)*3000)
		debs.FillPacketFull(p, g.Next())
		ps[i] = p
	}
	return ps
}

// reusingAlloc hands DecodeBatchAppend the same packets on every call, so
// the pin measures the codec alone, not a pool.
func reusingAlloc(n int) func([]*packet.Packet, int) []*packet.Packet {
	spare := make([]*packet.Packet, n)
	for i := range spare {
		spare[i] = new(packet.Packet)
	}
	return func(dst []*packet.Packet, n int) []*packet.Packet {
		return append(dst, spare[:n]...)
	}
}

func pinDecode(t *testing.T, ps []*packet.Packet) {
	t.Helper()
	var enc packet.Encoder
	var dec packet.Decoder
	wire := enc.EncodeBatch(nil, ps)
	alloc := reusingAlloc(len(ps))
	dst := make([]*packet.Packet, 0, len(ps))
	decode := func() {
		var err error
		dst, _, err = dec.DecodeBatchAppend(wire, alloc, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm the name table and every packet's field capacity
	for i, p := range dst {
		if !p.Equal(ps[i]) {
			t.Fatalf("packet %d decoded unequal to what was encoded", i)
		}
	}
	if allocs := testing.AllocsPerRun(50, decode) / float64(len(ps)); allocs != 0 {
		t.Errorf("warmed DecodeBatchAppend allocates %.3f per packet, want 0", allocs)
	}
}

func TestDecodeBatchAppendRelayNoAllocs(t *testing.T) { pinDecode(t, relayBatch()) }

func TestDecodeBatchAppendDEBSNoAllocs(t *testing.T) { pinDecode(t, debsBatch()) }

func TestEncodeBatchNoAllocs(t *testing.T) {
	for name, ps := range map[string][]*packet.Packet{"relay": relayBatch(), "debs": debsBatch()} {
		var enc packet.Encoder
		wire := enc.EncodeBatch(nil, ps) // grow the buffer to the batch's size
		if allocs := testing.AllocsPerRun(50, func() { wire = enc.EncodeBatch(wire[:0], ps) }); allocs != 0 {
			t.Errorf("%s: EncodeBatch into a reused buffer allocates %.3f per batch, want 0", name, allocs)
		}
	}
}
