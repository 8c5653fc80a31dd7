package packet

import (
	"math"
	"testing"
)

func seedPacket() *Packet {
	p := &Packet{StreamID: 3, Seq: 41, EmitNanos: 1_700_000_000}
	p.AddBool("b", true)
	p.AddInt32("i32", -7)
	p.AddInt64("i64", 1<<40)
	p.AddFloat32("f32", 2.5)
	p.AddFloat64("f64", math.NaN())
	p.AddString("s", "hello")
	p.AddBytes("raw", []byte{0, 1, 2, 255})
	return p
}

// FuzzPacketCodecRoundTrip: any byte slice the decoder accepts must
// re-encode and re-decode to an equal packet, consuming exactly the
// re-encoded length. This pins the codec against asymmetries (fields
// decoded but not re-encodable, length prefixes off by one) that a
// hand-written corpus misses.
func FuzzPacketCodecRoundTrip(f *testing.F) {
	var enc Encoder
	f.Add(enc.Encode(nil, seedPacket()))
	f.Add(enc.Encode(nil, &Packet{}))
	empty := &Packet{StreamID: 1}
	empty.AddString("", "")
	f.Add(enc.Encode(nil, empty))
	trunc := enc.Encode(nil, seedPacket())
	f.Add(trunc[:len(trunc)-3])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		var p1 Packet
		if _, err := dec.Decode(data, &p1); err != nil {
			return // rejection is fine; the property applies to accepted input
		}
		var e Encoder
		out := e.Encode(nil, &p1)
		var p2 Packet
		n, err := dec.Decode(out, &p2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded packet failed: %v", err)
		}
		if n != len(out) {
			t.Fatalf("re-decode consumed %d of %d bytes", n, len(out))
		}
		if !p1.Equal(&p2) {
			t.Fatalf("round trip changed packet:\n  first:  %+v\n  second: %+v", &p1, &p2)
		}
	})
}

// FuzzPacketCodecRoundTripWarm is FuzzPacketCodecRoundTrip through a
// decoder whose name table already holds seedPacket's names, so inputs
// that reuse, reorder, truncate or mangle those names take the table's
// hit path. The warmed decoder must accept exactly what a cold one
// accepts and decode it to an equal packet.
func FuzzPacketCodecRoundTripWarm(f *testing.F) {
	var enc Encoder
	warm := enc.Encode(nil, seedPacket())
	f.Add(warm)
	f.Add(warm[:len(warm)-3])
	reordered := &Packet{StreamID: 3}
	reordered.AddBytes("raw", []byte{9}).AddString("s", "x").AddBool("b", false)
	f.Add(enc.Encode(nil, reordered))
	renamed := &Packet{StreamID: 3}
	renamed.AddBool("c", true).AddInt32("i33", 1).AddInt64("i6", 2)
	f.Add(enc.Encode(nil, renamed))

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		var seed Packet
		if _, err := dec.Decode(warm, &seed); err != nil {
			t.Fatalf("warming decode failed: %v", err)
		}
		var cold Decoder
		var want, got Packet
		wantN, wantErr := cold.Decode(data, &want)
		n, err := dec.Decode(data, &got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("warmed decoder error %v, cold decoder error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if n != wantN || !got.Equal(&want) {
			t.Fatalf("warmed decode differs from cold:\n  warm: %d %+v\n  cold: %d %+v", n, &got, wantN, &want)
		}
		var e Encoder
		out := e.Encode(nil, &got)
		var again Packet
		if n, err := dec.Decode(out, &again); err != nil || n != len(out) || !again.Equal(&got) {
			t.Fatalf("warmed round trip: consumed %d of %d, err %v, equal %v", n, len(out), err, again.Equal(&got))
		}
	})
}
