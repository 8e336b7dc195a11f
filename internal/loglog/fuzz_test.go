package loglog

import (
	"encoding/binary"
	"testing"
)

// itemsFrom decodes the fuzz payload into 64-bit items.
func itemsFrom(data []byte) []uint64 {
	items := make([]uint64, 0, len(data)/8+1)
	for len(data) >= 8 {
		items = append(items, binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	if len(data) > 0 {
		var tail [8]byte
		copy(tail[:], data)
		items = append(items, binary.LittleEndian.Uint64(tail[:]))
	}
	return items
}

// FuzzSketchMerge checks the algebraic properties the set-union counting
// layer depends on: max-merge must be commutative, idempotent, and exactly
// equivalent to having added both item sets into a single sketch — that
// equivalence is what lets the paper compute |Si ∪ Dj| across routers
// without exchanging packet lists. The word-wise estimation kernel must agree
// with its byte-at-a-time reference on whatever the inputs produced.
func FuzzSketchMerge(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(
		[]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
		[]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88},
	)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		const m = 64
		itemsA := itemsFrom(rawA)
		itemsB := itemsFrom(rawB)

		a := MustNew(m)
		b := MustNew(m)
		combined := MustNew(m)
		for _, it := range itemsA {
			a.Add(it)
			combined.Add(it)
		}
		for _, it := range itemsB {
			b.Add(it)
			combined.Add(it)
		}

		checkKernel(t, "fuzz input", a.buckets, b.buckets)

		// Commutativity: A max-merge B must equal B max-merge A exactly.
		ab := a.Clone()
		if err := ab.Merge(b); err != nil {
			t.Fatalf("merge a<-b: %v", err)
		}
		ba := b.Clone()
		if err := ba.Merge(a); err != nil {
			t.Fatalf("merge b<-a: %v", err)
		}
		if ab.Estimate() != ba.Estimate() {
			t.Fatalf("merge is not commutative: %v vs %v", ab.Estimate(), ba.Estimate())
		}

		// Union equivalence: merging two sketches that saw disjoint parts
		// of the stream must reproduce the single-sketch state exactly.
		if ab.Estimate() != combined.Estimate() {
			t.Fatalf("merged estimate %v != combined estimate %v", ab.Estimate(), combined.Estimate())
		}

		// Idempotence: merging a sketch into itself changes nothing.
		before := ab.Estimate()
		self := ab.Clone()
		if err := ab.Merge(self); err != nil {
			t.Fatalf("self merge: %v", err)
		}
		if ab.Estimate() != before {
			t.Fatalf("self merge changed estimate: %v -> %v", before, ab.Estimate())
		}

		// UnionEstimate must not mutate its operands.
		estA, estB := a.Estimate(), b.Estimate()
		union, err := UnionEstimate(a, b)
		if err != nil {
			t.Fatalf("UnionEstimate: %v", err)
		}
		if a.Estimate() != estA || b.Estimate() != estB {
			t.Fatal("UnionEstimate mutated an operand")
		}
		if union != ba.Estimate() {
			t.Fatalf("UnionEstimate %v disagrees with merge %v", union, ba.Estimate())
		}

		// Intersection by inclusion-exclusion must never go negative.
		inter, err := IntersectionEstimate(a, b)
		if err != nil {
			t.Fatalf("IntersectionEstimate: %v", err)
		}
		if inter < 0 {
			t.Fatalf("negative intersection estimate %v", inter)
		}

		// Incompatible bucket counts must be rejected, not mangled.
		other := MustNew(2 * m)
		if err := a.Merge(other); err == nil {
			t.Fatal("merge with incompatible sketch succeeded")
		}
	})
}
