package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mafic/internal/loglog"
	"mafic/internal/sim"
	"mafic/internal/trafficmatrix"
)

// TestVarintBoundaries pins the unsigned primitive at every value where its
// encoded length changes: what the writer emits, and that the reader gives the
// value back having consumed exactly that.
func TestVarintBoundaries(t *testing.T) {
	for _, tc := range []struct {
		v    uint64
		size int
	}{
		{0, 1}, {127, 1}, {128, 2}, {1<<14 - 1, 2}, {1 << 14, 3},
		{math.MaxUint32, 5}, {1 << 32, 5}, {1 << 63, 10}, {math.MaxUint64, 10},
	} {
		w := &writer{}
		w.u64(tc.v)
		if len(w.b) != tc.size {
			t.Errorf("u64(%d) wrote %d bytes, want %d", tc.v, len(w.b), tc.size)
		}
		r := &reader{b: w.b}
		if got := r.u64(); got != tc.v || r.err != nil || r.remaining() != 0 {
			t.Errorf("u64(%d) read back %d (err %v, %d bytes left)", tc.v, got, r.err, r.remaining())
		}
	}
	for _, v := range []uint16{0, 127, 128, math.MaxUint16} {
		w := &writer{}
		w.u16(v)
		if got := (&reader{b: w.b}).u16(); got != v {
			t.Errorf("u16(%d) read back %d", v, got)
		}
	}
	for _, v := range []uint32{0, 127, 128, 1 << 14, math.MaxUint32} {
		w := &writer{}
		w.u32(v)
		if got := (&reader{b: w.b}).u32(); got != v {
			t.Errorf("u32(%d) read back %d", v, got)
		}
	}
}

// TestZigzagBoundaries pins the signed primitive: small magnitudes of either
// sign take one byte, the extremes round-trip.
func TestZigzagBoundaries(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		size int
	}{
		{0, 1}, {-1, 1}, {1, 1}, {63, 1}, {-64, 1}, {64, 2}, {-65, 2},
		{math.MaxInt64, 10}, {math.MinInt64, 10},
	} {
		w := &writer{}
		w.i64(tc.v)
		if len(w.b) != tc.size {
			t.Errorf("i64(%d) wrote %d bytes, want %d", tc.v, len(w.b), tc.size)
		}
		r := &reader{b: w.b}
		if got := r.i64(); got != tc.v || r.err != nil || r.remaining() != 0 {
			t.Errorf("i64(%d) read back %d (err %v, %d bytes left)", tc.v, got, r.err, r.remaining())
		}
		w = &writer{}
		w.time(sim.Time(tc.v))
		if got := (&reader{b: w.b}).time(); got != sim.Time(tc.v) {
			t.Errorf("time(%d) read back %d", tc.v, got)
		}
	}
}

// TestVarintRefusals pins what the reader will not take: a varint cut short,
// one that runs past ten bytes or past 64 bits, and a value wider than the
// field it is read into. Each is a sticky ErrCorrupt and reads as zero.
func TestVarintRefusals(t *testing.T) {
	wide := func(v uint64) []byte {
		w := &writer{}
		w.u64(v)
		return w.b
	}
	eleven := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for _, tc := range []struct {
		name string
		b    []byte
		read func(*reader) uint64
	}{
		{"empty", nil, (*reader).u64},
		{"continuation then nothing", []byte{0x80}, (*reader).u64},
		{"nine continuations then nothing", bytes.Repeat([]byte{0xff}, 9), (*reader).u64},
		{"eleven bytes", eleven, (*reader).u64},
		{"tenth byte past bit 63", append(bytes.Repeat([]byte{0xff}, 9), 0x02), (*reader).u64},
		{"u32 of 1<<32", wide(1 << 32), func(r *reader) uint64 { return uint64(r.u32()) }},
		{"u32 of MaxUint64", wide(math.MaxUint64), func(r *reader) uint64 { return uint64(r.u32()) }},
		{"u16 of 1<<16", wide(1 << 16), func(r *reader) uint64 { return uint64(r.u16()) }},
		{"count of 1<<32", wide(1 << 32), func(r *reader) uint64 { return uint64(r.count(0)) }},
		{"f64 of seven bytes", make([]byte, 7), func(r *reader) uint64 { return math.Float64bits(r.f64()) }},
	} {
		r := &reader{b: tc.b}
		if got := tc.read(r); got != 0 || !errors.Is(r.err, ErrCorrupt) {
			t.Errorf("%s: read %d with error %v, want 0 and an ErrCorrupt", tc.name, got, r.err)
		}
		first := r.err
		if r.u64(); r.err != first {
			t.Errorf("%s: the error is not sticky: %v then %v", tc.name, first, r.err)
		}
	}
}

// TestCountBoundsPreallocation pins that an element count is believed only as
// far as the payload behind it could hold that many of the smallest element.
func TestCountBoundsPreallocation(t *testing.T) {
	w := &writer{}
	w.u32(4)
	w.raw(make([]byte, 11))
	if n := (&reader{b: w.b}).count(3); n != 0 {
		t.Errorf("count(3) accepted 4 elements in 11 bytes")
	}
	if n := (&reader{b: w.b}).count(2); n != 4 {
		t.Errorf("count(2) of 4 elements in 11 bytes = %d", n)
	}
}

// smallSnapshot is a snapshot with something in most sections and values on
// both sides of the one-byte varint boundary, touched and untouched sketches
// included.
func smallSnapshot() *Snapshot {
	touched := loglog.SketchState{Buckets: bytes.Repeat([]byte{3, 0}, 8), Adds: 300}
	return &Snapshot{
		Scenario: []byte(`{"Name":"small"}`),
		BuildSeq: 9, Now: 1500 * sim.Millisecond, NextSeq: 70000, Processed: 1 << 33,
		Streams: []StreamState{{Seed: -42, Draws: 128}, {Seed: math.MinInt64}},
		Events: []EventState{
			{At: 2 * sim.Second, Seq: 200, Kind: EvFlowSend, Index: 130},
			{At: sim.Second, Seq: 3, Kind: EvBuild},
			{At: 3 * sim.Second, Seq: 131, Kind: EvMonitorLate, Report: &trafficmatrix.EpochReportState{
				Epoch: 4, Start: sim.Second, End: 2 * sim.Second,
				SourceEst: []float64{1.5, 0}, Matrix: []trafficmatrix.Cell{{Source: 1, Dest: 200, Packets: 0.25}},
			}},
		},
		Monitor: trafficmatrix.MonitorState{EpochIndex: 4, Running: true, Counters: []trafficmatrix.CounterState{
			{Source: loglog.PairState{Active: touched}, SourcePkts: 300},
			{},
		}},
		Flags: RunFlags{Activated: true, ActivationSeconds: 0.75, ATRCount: 3},
	}
}

// TestUntouchedSketchIsTwoBytes pins what eliding buys on the wire: a counter
// whose four sketches were never added to costs eleven bytes.
func TestUntouchedSketchIsTwoBytes(t *testing.T) {
	snap := smallSnapshot()
	full := len(Encode(snap))
	snap.Monitor.Counters = snap.Monitor.Counters[:1]
	if got := full - len(Encode(snap)); got != 11 {
		t.Errorf("an untouched counter takes %d bytes, want 11 (four 2-byte sketches, three 1-byte tallies)", got)
	}
}

// TestDecodeRefusesEveryTruncation cuts a small but complete file — Decode
// wants all fifteen sections, so there is no smaller one — at every byte: each
// prefix is refused with ErrCorrupt, none panics, and the whole file decodes
// and re-encodes to itself.
func TestDecodeRefusesEveryTruncation(t *testing.T) {
	data := Encode(smallSnapshot())
	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again := Encode(snap); !bytes.Equal(again, data) {
		t.Fatalf("re-encoded file differs: %d bytes vs %d", len(again), len(data))
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("the first %d of %d bytes decoded with %v, want an ErrCorrupt", cut, len(data), err)
		}
	}
}
