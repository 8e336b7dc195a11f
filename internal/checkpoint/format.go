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
//	magic "MAFICSNP" | version u32 | section*
//	section := kind u8 | length u32 | payload
//
// Every multi-byte integer is little-endian; floats travel as their IEEE-754
// bit patterns. The decoder is deliberately paranoid — every length is
// checked against the remaining bytes before it is trusted, and slice
// preallocation is bounded by what the payload could possibly hold — so
// truncated, bit-flipped or adversarial inputs fail with a clean error
// instead of panicking or allocating unboundedly. The fuzz target in the
// experiment package drives exactly that property.

// Magic and version of the snapshot format.
var snapshotMagic = [8]byte{'M', 'A', 'F', 'I', 'C', 'S', 'N', 'P'}

// SnapshotVersion is the current wire-format version. Bump it whenever a
// section's layout changes; the coverage guard test forces a bump whenever a
// snapshotted struct grows a field.
//
// Version 2 is version 1 without the per-packet transmit-done events (kind
// 2); a version 1 file is refused, not migrated. See "Version 2" in doc.go.
const SnapshotVersion uint32 = 2

// ErrCorrupt is wrapped by every decode error.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// ErrVersion is returned for a well-formed header of a version this build
// does not read. It is also an ErrCorrupt, so whatever walks past undecodable
// files (Store.LatestValid, the service's recovery) walks past these too.
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

// writer accumulates the encoded snapshot. In counting mode it only adds up
// what would have been written, which is how Encode sizes its one buffer with
// the very encoders that then fill it.
type writer struct {
	b        []byte
	n        int
	counting bool
}

func (w *writer) raw(v []byte) {
	if w.counting {
		w.n += len(v)
		return
	}
	w.b = append(w.b, v...)
}

func (w *writer) u8(v uint8) {
	if w.counting {
		w.n++
		return
	}
	w.b = append(w.b, v)
}

func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) u16(v uint16) {
	if w.counting {
		w.n += 2
		return
	}
	w.b = binary.LittleEndian.AppendUint16(w.b, v)
}

func (w *writer) u32(v uint32) {
	if w.counting {
		w.n += 4
		return
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *writer) u64(v uint64) {
	if w.counting {
		w.n += 8
		return
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *writer) i64(v int64)     { w.u64(uint64(v)) }
func (w *writer) f64(v float64)   { w.u64(math.Float64bits(v)) }
func (w *writer) time(v sim.Time) { w.i64(int64(v)) }

func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.raw(v)
}

// section writes a completed section: the payload built by fn, prefixed with
// its kind and length.
func (w *writer) section(kind uint8, fn func(*writer)) {
	w.u8(kind)
	lenAt := len(w.b)
	w.u32(0) // patched below
	fn(w)
	if !w.counting {
		binary.LittleEndian.PutUint32(w.b[lenAt:], uint32(len(w.b)-lenAt-4))
	}
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

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64     { return int64(r.u64()) }
func (r *reader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *reader) time() sim.Time { return sim.Time(r.i64()) }

func (r *reader) bytes() []byte {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// count reads a u32 element count and verifies the payload could actually
// hold that many elements of at least minElemSize bytes, bounding any
// preallocation by the real input size.
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
