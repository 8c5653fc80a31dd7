package packet

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// The decoder's name table must never change what a packet decodes to:
// each test compares a warmed decoder's output with a cold decoder's.

// namedPacket builds a packet whose fields carry the given names, with
// values of every type so a name lands on each decode branch.
func namedPacket(seq uint64, names ...string) *Packet {
	p := &Packet{StreamID: 7, Seq: seq, EmitNanos: int64(seq) * 10}
	for i, name := range names {
		switch i % 4 {
		case 0:
			p.AddInt64(name, int64(seq)+int64(i))
		case 1:
			p.AddFloat32(name, float32(i)/2)
		case 2:
			p.AddString(name, name+"-v")
		default:
			p.AddBytes(name, []byte(name))
		}
	}
	return p
}

func encodeOne(p *Packet) []byte {
	var enc Encoder
	return enc.Encode(nil, p)
}

// coldDecode decodes wire with a decoder that has seen nothing.
func coldDecode(t testing.TB, wire []byte) *Packet {
	t.Helper()
	var dec Decoder
	var p Packet
	if _, err := dec.Decode(wire, &p); err != nil {
		t.Fatalf("cold decode: %v", err)
	}
	return &p
}

// checkDecode decodes wire with dec and requires the cold result.
func checkDecode(t testing.TB, dec *Decoder, wire []byte, what string) {
	t.Helper()
	var got Packet
	n, err := dec.Decode(wire, &got)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if n != len(wire) {
		t.Fatalf("%s: decoded %d of %d bytes", what, n, len(wire))
	}
	if want := coldDecode(t, wire); !got.Equal(want) {
		t.Fatalf("%s: warmed decoder gave\n  %+v\nwant\n  %+v", what, &got, want)
	}
}

func TestDecoderNameVariantsOfCachedSchema(t *testing.T) {
	var dec Decoder
	schema := []string{"alpha", "beta", "gamma", "delta"}
	checkDecode(t, &dec, encodeOne(namedPacket(1, schema...)), "schema")
	variants := map[string][]string{
		"prefix":          {"alpha", "beta"},
		"reorder":         {"delta", "gamma", "beta", "alpha"},
		"rename same len": {"alpha", "betb", "gamma", "delta"},
		"rename longer":   {"alpha", "beta", "gammas", "delta"},
		"rename shorter":  {"alpha", "beta", "gamm", "delta"},
		"prefix of name":  {"alph", "beta", "gamma", "delta"},
		"extension":       {"alpha", "beta", "gamma", "delta", "epsilon"},
		"duplicate":       {"alpha", "alpha", "alpha", "alpha"},
		"empty names":     {"", "beta", "", "delta"},
		"shifted":         {"zeta", "alpha", "beta", "gamma", "delta"},
	}
	for round := 0; round < 2; round++ { // the second round decodes from the grown table
		for what, names := range variants {
			checkDecode(t, &dec, encodeOne(namedPacket(uint64(round), names...)), what)
		}
		checkDecode(t, &dec, encodeOne(namedPacket(9, schema...)), "schema again")
	}
}

func TestDecoderNamesDoNotAliasFrame(t *testing.T) {
	var dec Decoder
	names := []string{"seq", "t0", "payload"}
	for _, what := range []string{"miss", "hit"} {
		wire := encodeOne(namedPacket(3, names...))
		var p Packet
		if _, err := dec.Decode(wire, &p); err != nil {
			t.Fatal(err)
		}
		for i := range wire {
			wire[i] = 'X' // the frame goes back to its pool and is refilled
		}
		for i, name := range names {
			if got := p.FieldAt(i).Name; got != name {
				t.Fatalf("%s: field %d name %q after frame reuse, want %q", what, i, got, name)
			}
		}
	}
}

func TestDecoderSharedByConcurrentDecodes(t *testing.T) {
	const goroutines, rounds = 4, 300
	schemas := [][]string{
		{"seq", "t0", "payload"},
		{"payload", "t0", "seq"},
		{"machine", "t0", "ts", "s1", "s2", "s3", "v1", "v2", "v3"},
		{"b", "i32", "i64", "f32", "f64", "s", "raw"},
	}
	var dec Decoder
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		// Each goroutine also sends names no other one sends, so the
		// table grows from several goroutines at once.
		own := append([]string{fmt.Sprintf("own%d", g)}, schemas[g%len(schemas)]...)
		wires := make([][]byte, 0, len(schemas)+1)
		for k, names := range append(schemas, own) {
			wires = append(wires, encodeOne(namedPacket(uint64(g*100+k), names...)))
		}
		wants := make([]*Packet, len(wires))
		for k, w := range wires {
			wants[k] = coldDecode(t, w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p Packet
			for r := 0; r < rounds; r++ {
				k := (r + g) % len(wires) // alternate schemas, out of phase across goroutines
				if _, err := dec.Decode(wires[k], &p); err != nil {
					errs <- err
					return
				}
				if !p.Equal(wants[k]) {
					errs <- fmt.Errorf("goroutine %d round %d: got %+v, want %+v", g, r, &p, wants[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// freshNames returns n names no earlier call returned.
func freshNames(next *int, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%04d", *next)
		*next++
	}
	return out
}

func TestDecoderTableStaysBounded(t *testing.T) {
	var dec Decoder
	next := 0
	first := freshNames(&next, 8)
	checkDecode(t, &dec, encodeOne(namedPacket(0, first...)), "first")
	for k := 1; k < 3*maxNames/8; k++ {
		checkDecode(t, &dec, encodeOne(namedPacket(uint64(k), freshNames(&next, 8)...)), "fresh names")
	}
	tbl := dec.names.Load()
	if len(tbl.byName) != maxNames || len(tbl.last) > maxNames {
		t.Fatalf("table holds %d names and %d positions, want %d and at most %d",
			len(tbl.byName), len(tbl.last), maxNames, maxNames)
	}

	// A full table no longer learns: decoding new names must not wait
	// for the publish lock, which this goroutine now holds.
	dec.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 16; k++ {
			wire := encodeOne(namedPacket(uint64(k), freshNames(&next, 8)...))
			var p Packet
			if _, err := dec.Decode(wire, &p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
		dec.mu.Unlock()
	case <-time.After(10 * time.Second):
		dec.mu.Unlock()
		<-done
		t.Fatal("Decode with a full name table took the publish lock")
	}
	if dec.names.Load() != tbl {
		t.Fatal("a full table was replaced")
	}

	// Names outside the table still decode right, and names inside it
	// still cost nothing.
	checkDecode(t, &dec, encodeOne(namedPacket(1, freshNames(&next, 8)...)), "beyond the cap")
	wire := encodeOne(namedPacket(2, first...))
	var p Packet
	checkDecode(t, &dec, wire, "interned")
	if allocs := testing.AllocsPerRun(20, func() { dec.Decode(wire, &p) }); allocs != 2 {
		// Two fields of namedPacket are strings: only their values allocate.
		t.Fatalf("decoding interned names allocates %v times, want 2 (the string values)", allocs)
	}
}

func TestDecoderOversizedPacketBoundsTable(t *testing.T) {
	var dec Decoder
	next := 0
	checkDecode(t, &dec, encodeOne(namedPacket(0, freshNames(&next, 3*maxNames)...)), "oversized")
	tbl := dec.names.Load()
	if len(tbl.byName) != maxNames || len(tbl.last) != maxNames {
		t.Fatalf("table holds %d names and %d positions, want %d of each", len(tbl.byName), len(tbl.last), maxNames)
	}
}
