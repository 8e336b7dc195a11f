package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mafic/internal/sim"
)

// The snapshot wire format is a self-describing sectioned binary layout:
//
//	magic "MAFICSNP" | version | section*
//	section := kind u8 | length | payload
//
// The version and the section lengths are fixed little-endian u32 words (a
// length is patched in once its payload is written); inside a payload u8 and
// bool are one byte, u16/u32/u64 a LEB128 varint, i64 and time a zigzag
// varint, f64 its IEEE-754 bits in 8 little-endian bytes, a byte string or
// list its u32 length or count and then the contents. The decoder is
// deliberately paranoid — every length is checked against the remaining bytes
// before it is trusted, a varint that runs past ten bytes or past the width it
// is read at is refused, and slice preallocation is bounded by what the
// payload could possibly hold — so truncated, bit-flipped or adversarial
// inputs fail with a clean error instead of panicking or allocating
// unboundedly. The fuzz target in the experiment package drives exactly that
// property.

// Magic and version of the snapshot format.
var snapshotMagic = [8]byte{'M', 'A', 'F', 'I', 'C', 'S', 'N', 'P'}

// SnapshotVersion is the current wire-format version. Bump it whenever a walk
// in codec.go changes what it writes; the coverage guard test forces the
// decision whenever a snapshotted struct grows a field (the experiment
// package's capture.go, "Coverage guard", has the steps).
//
// Version 3 is version 2 with varint integers and untouched sketches elided;
// a file of an earlier version is refused, not migrated. See doc.go.
const SnapshotVersion uint32 = 3

// ErrCorrupt is wrapped by every decode error.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// ErrVersion is returned for a well-formed header of a version this build
// does not read. It is also an ErrCorrupt: a file this build cannot read is
// refused like a damaged one.
var ErrVersion = fmt.Errorf("%w: unsupported snapshot version", ErrCorrupt)

// Section kinds.
const (
	secScenario    uint8 = 1
	secClock       uint8 = 2
	secRNG         uint8 = 3
	secEvents      uint8 = 4
	secProbeRecs   uint8 = 5
	secLinks       uint8 = 6
	secNodes       uint8 = 7
	secNetwork     uint8 = 8
	secMonitor     uint8 = 9
	secCoordinator uint8 = 10
	secCollector   uint8 = 11
	secDefenders   uint8 = 12
	secFlows       uint8 = 13
	secVictims     uint8 = 14
	secFlags       uint8 = 15
)

// writer accumulates the encoded snapshot.
type writer struct {
	b []byte
}

func (w *writer) raw(v []byte) { w.b = append(w.b, v...) }
func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }

func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// fixed32 is the word the file and section headers are made of.
func (w *writer) fixed32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

func (w *writer) u64(v uint64) {
	if v < 0x80 { // most of a snapshot: idle counters, small indices, flags
		w.b = append(w.b, byte(v))
		return
	}
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *writer) u16(v uint16)    { w.u64(uint64(v)) }
func (w *writer) u32(v uint32)    { w.u64(uint64(v)) }
func (w *writer) i64(v int64)     { w.u64(uint64(v<<1) ^ uint64(v>>63)) }
func (w *writer) f64(v float64)   { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *writer) time(v sim.Time) { w.i64(int64(v)) }

func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.raw(v)
}

// reader consumes an encoded snapshot with a sticky error: after the first
// failure every further read returns zero values, so decode paths need no
// per-read error plumbing.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, r.remaining())
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) boolean() bool { return r.u8() != 0 }

func (r *reader) fixed32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	if r.err == nil && r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if r.err != nil || n <= 0 {
		r.fail("varint at offset %d is cut short or overflows 64 bits", r.off)
		return 0
	}
	r.off += n
	return v
}

// narrow reads a varint that must fit in the given number of bits.
func (r *reader) narrow(bits uint) uint64 {
	v := r.u64()
	if v>>bits != 0 {
		r.fail("value %d overflows %d bits", v, bits)
		return 0
	}
	return v
}

func (r *reader) u16() uint16 { return uint16(r.narrow(16)) }
func (r *reader) u32() uint32 { return uint32(r.narrow(32)) }

func (r *reader) i64() int64 {
	v := r.u64()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *reader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) time() sim.Time { return sim.Time(r.i64()) }

// bytes reads a byte string into dst's backing, growing it only if it is
// too short: the result never aliases the input.
func (r *reader) bytes(dst []byte) []byte {
	n := int(r.u32())
	return append(dst, r.take(n)...)
}

// count reads a u32 element count and verifies the payload could actually
// hold that many elements of at least minElemSize bytes (every varint in one
// byte, every nested list empty), bounding any preallocation by the input.
func (r *reader) count(minElemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || (minElemSize > 0 && n > r.remaining()/minElemSize) {
		r.fail("element count %d exceeds remaining %d bytes", n, r.remaining())
		return 0
	}
	return n
}
