package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Codec errors.
var (
	ErrTruncated    = errors.New("packet: truncated encoding")
	ErrBadFieldType = errors.New("packet: unknown field type in encoding")
	ErrBatchLength  = errors.New("packet: bad batch length prefix")
)

// Encoder serializes packets into a caller-supplied or internal buffer.
//
// Per the paper's object-reuse scheme (§III-B3), an Encoder is created once
// per link and reused for every batch: its scratch buffer grows to the
// high-water mark and is then reused, so steady-state encoding performs no
// allocation.
type Encoder struct {
	scratch [binary.MaxVarintLen64]byte
}

// Encode appends the wire form of p to dst and returns the extended slice.
func (e *Encoder) Encode(dst []byte, p *Packet) []byte {
	dst = e.appendUvarint(dst, uint64(p.StreamID))
	dst = e.appendUvarint(dst, p.Seq)
	dst = e.appendUvarint(dst, uint64(p.EmitNanos))
	dst = e.appendUvarint(dst, uint64(len(p.fields)))
	for i := range p.fields {
		f := &p.fields[i]
		dst = e.appendUvarint(dst, uint64(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = append(dst, byte(f.Type))
		switch f.Type {
		case TypeBool:
			if f.num != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case TypeInt32, TypeFloat32:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(f.num))
		case TypeInt64, TypeFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, f.num)
		case TypeString:
			dst = e.appendUvarint(dst, uint64(len(f.str)))
			dst = append(dst, f.str...)
		case TypeBytes:
			dst = e.appendUvarint(dst, uint64(len(f.bytes)))
			dst = append(dst, f.bytes...)
		}
	}
	return dst
}

// EncodeBatch appends a length-prefixed batch of packets to dst: a uvarint
// count followed by each packet prefixed with its uvarint byte length, so a
// decoder can skip packets without parsing fields.
func (e *Encoder) EncodeBatch(dst []byte, ps []*Packet) []byte {
	dst = e.appendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		dst = e.appendUvarint(dst, uint64(p.WireSize()))
		dst = e.Encode(dst, p)
	}
	return dst
}

func (e *Encoder) appendUvarint(dst []byte, v uint64) []byte {
	n := binary.PutUvarint(e.scratch[:], v)
	return append(dst, e.scratch[:n]...)
}

// Decoder deserializes packets from a byte slice. Like Encoder it is
// created once per link and reused; Decode fills a caller-supplied packet
// (typically from a pool).
//
// Every packet carries its field names on the wire, and a stream repeats
// the same few names in every packet, so the Decoder interns them: it
// keeps a bounded table of the names it has seen, and a known name costs
// a compare instead of an allocation. Steady-state decoding then
// allocates only for string field values. Interned names are strings the
// table owns; they never alias the decoded frame, which the caller may
// recycle as soon as Decode returns.
//
// The zero value is ready for use. One Decoder may be shared by
// concurrent Decode calls: the table is an immutable snapshot read with
// one atomic load, and a packet that brings new names publishes a grown
// copy. A Decoder must not be copied after first use.
type Decoder struct {
	names atomic.Pointer[nameTable]
	// mu serializes learn's clone-and-publish; Decode never takes it
	// while the table is full or every name hits.
	mu sync.Mutex
}

// maxNames caps the names one Decoder interns. A DEBS reading carries 68
// distinct names and a relay packet 3. Once the table holds maxNames
// names it stops growing, and names outside it are allocated per packet
// as if there were no table.
const maxNames = 256

// nameTable is one immutable snapshot of a Decoder's interned names.
type nameTable struct {
	// last holds the names of the packet that last grew the table, in
	// wire order (at most maxNames of them), so a packet of that schema
	// resolves each name with one compare.
	last []string
	// byName holds every interned name, keyed by itself.
	byName map[string]string
}

// intern returns the table's copy of name b found at field position i.
// Neither compare nor lookup allocates.
func (t *nameTable) intern(i int, b []byte) (string, bool) {
	if t == nil {
		return "", false
	}
	if i < len(t.last) && t.last[i] == string(b) {
		return t.last[i], true
	}
	s, ok := t.byName[string(b)]
	return s, ok
}

// full reports whether the table has stopped growing.
func (t *nameTable) full() bool { return t != nil && len(t.byName) >= maxNames }

// Decode parses one packet from buf into p (Reset first) and returns the
// number of bytes consumed.
//
//neptune:hotpath
func (d *Decoder) Decode(buf []byte, p *Packet) (int, error) {
	p.Reset()
	pos := 0
	streamID, n, err := readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if streamID > math.MaxUint32 {
		return 0, fmt.Errorf("packet: stream id %d overflows uint32", streamID)
	}
	p.StreamID = uint32(streamID)
	p.Seq, n, err = readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	emit, n, err := readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	p.EmitNanos = int64(emit)
	nFields, n, err := readUvarint(buf[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if nFields > uint64(len(buf)) {
		// A field costs at least one byte on the wire; more fields than
		// remaining bytes means a corrupt count.
		return 0, fmt.Errorf("%w: field count %d exceeds buffer", ErrTruncated, nFields)
	}
	t := d.names.Load()
	miss := false
	for i := uint64(0); i < nFields; i++ {
		nameLen, n, err := readUvarint(buf[pos:])
		if err != nil {
			return 0, err
		}
		pos += n
		if uint64(len(buf)-pos) < nameLen+1 {
			return 0, ErrTruncated
		}
		name, ok := t.intern(int(i), buf[pos:pos+int(nameLen)])
		if !ok {
			name = string(buf[pos : pos+int(nameLen)])
			miss = true
		}
		pos += int(nameLen)
		ft := FieldType(buf[pos])
		pos++
		switch ft {
		case TypeBool:
			if pos >= len(buf) {
				return 0, ErrTruncated
			}
			p.AddBool(name, buf[pos] != 0)
			pos++
		case TypeInt32:
			if len(buf)-pos < 4 {
				return 0, ErrTruncated
			}
			p.AddInt32(name, int32(binary.LittleEndian.Uint32(buf[pos:])))
			pos += 4
		case TypeFloat32:
			if len(buf)-pos < 4 {
				return 0, ErrTruncated
			}
			p.AddFloat32(name, math.Float32frombits(binary.LittleEndian.Uint32(buf[pos:])))
			pos += 4
		case TypeInt64:
			if len(buf)-pos < 8 {
				return 0, ErrTruncated
			}
			p.AddInt64(name, int64(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case TypeFloat64:
			if len(buf)-pos < 8 {
				return 0, ErrTruncated
			}
			p.AddFloat64(name, math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case TypeString:
			sl, n, err := readUvarint(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
			if uint64(len(buf)-pos) < sl {
				return 0, ErrTruncated
			}
			p.AddString(name, string(buf[pos:pos+int(sl)]))
			pos += int(sl)
		case TypeBytes:
			bl, n, err := readUvarint(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
			if uint64(len(buf)-pos) < bl {
				return 0, ErrTruncated
			}
			p.AddBytes(name, buf[pos:pos+int(bl)])
			pos += int(bl)
		default:
			return 0, fmt.Errorf("%w: %d", ErrBadFieldType, ft)
		}
	}
	if miss && !t.full() {
		d.learn(p)
	}
	return pos, nil
}

// learn interns the names of p, just decoded, that the table lacks. It
// publishes a grown clone of the table, so concurrent Decode calls keep
// reading their own snapshot without a lock.
func (d *Decoder) learn(p *Packet) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.names.Load()
	if old.full() {
		return
	}
	var known map[string]string
	if old != nil {
		known = old.byName
	}
	t := &nameTable{
		last:   make([]string, min(len(p.fields), maxNames)),
		byName: make(map[string]string, min(len(known)+len(p.fields), maxNames)),
	}
	maps.Copy(t.byName, known)
	for i := range p.fields {
		name := p.fields[i].Name
		if s, ok := t.byName[name]; ok {
			name = s
		} else if len(t.byName) < maxNames {
			t.byName[name] = name
		}
		if i < len(t.last) {
			t.last[i] = name
		}
	}
	d.names.Store(t)
}

// DecodeBatch parses a batch produced by EncodeBatch. For each packet it
// calls alloc to obtain a destination packet (typically pool.Get) and then
// emit with the decoded packet. It returns the number of bytes consumed.
func (d *Decoder) DecodeBatch(buf []byte, alloc func() *Packet, emit func(*Packet) error) (int, error) {
	pos := 0
	count, n, err := readUvarint(buf)
	if err != nil {
		return 0, err
	}
	pos += n
	for i := uint64(0); i < count; i++ {
		plen, n, err := readUvarint(buf[pos:])
		if err != nil {
			return pos, err
		}
		pos += n
		if uint64(len(buf)-pos) < plen {
			return pos, fmt.Errorf("%w: packet %d claims %d bytes, %d remain", ErrBatchLength, i, plen, len(buf)-pos)
		}
		p := alloc()
		used, err := d.Decode(buf[pos:pos+int(plen)], p)
		if err != nil {
			return pos, err
		}
		if used != int(plen) {
			return pos, fmt.Errorf("%w: packet %d decoded %d of %d bytes", ErrBatchLength, i, used, plen)
		}
		pos += int(plen)
		if err := emit(p); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// DecodeBatchAppend parses a batch produced by EncodeBatch, appending the
// decoded packets to dst and returning the extended slice plus the bytes
// consumed. Unlike DecodeBatch it takes no per-packet emit callback:
// alloc(dst, n) appends n blank packets in one step (typically
// pool.PacketPool.GetBatch), so a hot ingest path pays neither a closure
// allocation per call nor pool synchronization per packet. On error the
// returned slice still contains every allocated packet — decoded or not —
// so the caller can recycle them all.
//
//neptune:hotpath
func (d *Decoder) DecodeBatchAppend(buf []byte, alloc func(dst []*Packet, n int) []*Packet, dst []*Packet) ([]*Packet, int, error) {
	pos := 0
	count, n, err := readUvarint(buf)
	if err != nil {
		return dst, 0, err
	}
	pos += n
	if count > uint64(len(buf)) {
		// A packet costs at least one byte; more packets than remaining
		// bytes means a corrupt count (and an absurd pre-size).
		return dst, pos, fmt.Errorf("%w: packet count %d exceeds buffer", ErrBatchLength, count)
	}
	start := len(dst)
	dst = alloc(dst, int(count))
	for i := uint64(0); i < count; i++ {
		plen, n, err := readUvarint(buf[pos:])
		if err != nil {
			return dst, pos, err
		}
		pos += n
		if uint64(len(buf)-pos) < plen {
			return dst, pos, fmt.Errorf("%w: packet %d claims %d bytes, %d remain", ErrBatchLength, i, plen, len(buf)-pos)
		}
		used, err := d.Decode(buf[pos:pos+int(plen)], dst[start+int(i)])
		if err != nil {
			return dst, pos, err
		}
		if used != int(plen) {
			return dst, pos, fmt.Errorf("%w: packet %d decoded %d of %d bytes", ErrBatchLength, i, used, plen)
		}
		pos += int(plen)
	}
	return dst, pos, nil
}

func readUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	return v, n, nil
}
