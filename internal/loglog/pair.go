package loglog

import "math/bits"

// This file holds the epoch-oriented allocation machinery: double-buffered
// sketch pairs and slab allocation. Together they let a measurement layer run
// with zero steady-state allocation — the pair swap replaces the per-epoch
// Clone-and-Reset dance, and the slab collapses the O(routers) sketch
// constructions into a constant number of backing arrays.

// Pair is a double-buffered pair of sketches for epoch-based measurement.
// Packets of the current epoch are recorded into Active; Swap freezes the
// epoch into Shadow (and clears the new Active for the next epoch) so the
// frozen data can be read at leisure while recording continues — without
// cloning anything. The zero value is not usable; use PairOf.
type Pair struct {
	active, shadow *Sketch
}

// PairOf assembles a pair from two existing compatible sketches (typically
// slab-allocated). Both must be non-nil with equal bucket counts.
func PairOf(active, shadow *Sketch) (Pair, error) {
	if active == nil || shadow == nil || active.m != shadow.m {
		return Pair{}, ErrIncompatible
	}
	return Pair{active: active, shadow: shadow}, nil
}

// Active returns the sketch recording the current epoch.
func (p *Pair) Active() *Sketch { return p.active }

// Shadow returns the sketch holding the previous, frozen epoch.
func (p *Pair) Shadow() *Sketch { return p.shadow }

// Swap rotates the buffers at an epoch boundary: the just-recorded epoch
// becomes the frozen Shadow, and the new Active (last epoch's shadow) is
// reset so it starts the next epoch empty. Swap never allocates.
func (p *Pair) Swap() {
	p.active, p.shadow = p.shadow, p.active
	p.active.Reset()
}

// NewSlab allocates n sketches with m buckets each backed by just two arrays
// (one []Sketch, one shared bucket slab), so creating the per-router counter
// banks of a large domain costs O(1) allocations instead of O(n). The
// returned sketches are independent: their bucket windows do not overlap.
func NewSlab(n, m int) ([]Sketch, error) {
	if n < 0 {
		return nil, ErrBucketCount
	}
	if _, err := New(m); err != nil {
		return nil, err
	}
	sketches := make([]Sketch, n)
	backing := make([]uint8, n*m)
	p := uint(bits.TrailingZeros(uint(m)))
	for i := range sketches {
		sketches[i] = Sketch{
			m:       m,
			p:       p,
			buckets: backing[i*m : (i+1)*m : (i+1)*m],
		}
	}
	return sketches, nil
}
