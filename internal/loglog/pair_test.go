package loglog

import (
	"testing"
)

func TestIntoEstimatorsMatchAllocatingOnes(t *testing.T) {
	a, b := MustNew(512), MustNew(512)
	for i := uint64(0); i < 2000; i++ {
		a.Add(i * 3)
	}
	for i := uint64(0); i < 2000; i++ {
		b.Add(i * 5)
	}
	scratch := MustNew(512)

	wantU, err := UnionEstimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := UnionEstimateInto(scratch, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if gotU != wantU {
		t.Fatalf("UnionEstimateInto %v != UnionEstimate %v", gotU, wantU)
	}
}

func TestPairSwapFreezesEpoch(t *testing.T) {
	p, err := PairOf(MustNew(128), MustNew(128))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		p.Active().Add(i)
	}
	epochEst := p.Active().Estimate()

	p.Swap()
	if got := p.Shadow().Estimate(); got != epochEst {
		t.Fatalf("shadow estimate %v != frozen epoch %v", got, epochEst)
	}
	if got := p.Active().Estimate(); got != 0 {
		t.Fatalf("new active must start empty, estimate %v", got)
	}

	// The next epoch accumulates independently of the frozen one.
	for i := uint64(1000); i < 1100; i++ {
		p.Active().Add(i)
	}
	if got := p.Shadow().Estimate(); got != epochEst {
		t.Fatalf("recording into active disturbed the shadow: %v != %v", got, epochEst)
	}
}

func TestPairOfValidation(t *testing.T) {
	if _, err := PairOf(MustNew(64), MustNew(128)); err == nil {
		t.Fatal("PairOf across bucket counts must fail")
	}
	if _, err := PairOf(nil, MustNew(64)); err == nil {
		t.Fatal("PairOf(nil, ...) must fail")
	}
	p, err := PairOf(MustNew(64), MustNew(64))
	if err != nil {
		t.Fatal(err)
	}
	p.Active().Add(7)
	if p.Active().Adds() != 1 {
		t.Fatal("assembled pair not recording")
	}
}

func TestNewSlab(t *testing.T) {
	sketches, err := NewSlab(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(sketches) != 8 {
		t.Fatalf("slab size %d, want 8", len(sketches))
	}
	// Sketches must be independent despite the shared backing.
	for i := uint64(0); i < 100; i++ {
		sketches[0].Add(i)
	}
	for i := 1; i < len(sketches); i++ {
		if sketches[i].Estimate() != 0 {
			t.Fatalf("sketch %d polluted by writes to sketch 0", i)
		}
	}
	// A slab sketch must behave exactly like a New one.
	ref := MustNew(64)
	for i := uint64(0); i < 100; i++ {
		ref.Add(i)
	}
	if sketches[0].Estimate() != ref.Estimate() {
		t.Fatalf("slab sketch estimate %v != New sketch %v", sketches[0].Estimate(), ref.Estimate())
	}
	if _, err := NewSlab(4, 17); err == nil {
		t.Fatal("NewSlab with bad bucket count must fail")
	}
	if _, err := NewSlab(-1, 64); err == nil {
		t.Fatal("NewSlab with negative count must fail")
	}
}

func TestEmptySketchEstimateFastPath(t *testing.T) {
	s := MustNew(1024)
	if got := s.Estimate(); got != 0 {
		t.Fatalf("empty sketch estimate %v, want 0", got)
	}
	s.Add(42)
	if got := s.Estimate(); got <= 0 {
		t.Fatalf("non-empty sketch estimate %v, want > 0", got)
	}
	s.Reset()
	if got := s.Estimate(); got != 0 {
		t.Fatalf("reset sketch estimate %v, want 0", got)
	}
}

// TestMergeIntoAllocFree pins the union estimate the traffic matrix takes per
// cell at zero allocations.
func TestMergeIntoAllocFree(t *testing.T) {
	a, b := MustNew(1024), MustNew(1024)
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
		b.Add(i + 50)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := UnionEstimate(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UnionEstimate allocates %v per call, want 0", allocs)
	}
}
